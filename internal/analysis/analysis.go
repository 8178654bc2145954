// Package analysis implements confvet, the engine-invariant static-analysis
// layer. It is the analogue of PtolemyII's pre-execution consistency checks
// applied to the engine's own source: a small pass framework (stdlib only —
// go/parser, go/ast, go/types, go/importer) running custom analyzers that
// enforce invariants `go vet` cannot see:
//
//   - atomic: a struct field accessed through sync/atomic anywhere must
//     never be read or written plainly elsewhere (the QoSHooks/TryFire
//     pattern), and fields of typed-atomic type must not be reassigned
//     wholesale.
//   - lockorder: the mutex-acquisition graph derived from the AST (receiver
//     locks vs. scheduler/executor locks) must stay acyclic.
//   - hotpath: functions tagged //confvet:hotpath must not call time.Now
//     (and friends), allocation-heavy fmt helpers, or iterate maps.
//   - noalloc: functions tagged //confvet:noalloc must not contain
//     allocating constructs (escaping composite literals, make/new/append,
//     string concatenation, closures, interface boxing).
//   - lifecycle: an actor's Fire must not call Initialize/Wrapup.
//
// The dataflow tier (cfg.go, dataflow.go) adds three flow-sensitive
// analyzers on a per-function CFG and annotation-driven call summaries:
//
//   - poolsafe: pooled events (Pool.Get / ring pop) must be released
//     exactly once or pinned before any retaining store — use-after-
//     release, double-release, unpinned escapes and leaks on early
//     returns are reported with the offending control-flow path.
//   - ringsafe: SPSC rings must have a statically single producer unless
//     the construction is //confvet:single-writer guarded, and TryPush
//     results may not be discarded.
//   - waitersafe: every ring.Waiter park follows the proven
//     register→recheck→park shape from the lost-wakeup proof.
//
// # Annotation grammar
//
// Directives are ordinary line comments beginning with "confvet:":
//
//	//confvet:hotpath            (func doc)  function is on the hot path
//	//confvet:noalloc            (func doc)  function must not allocate
//	//confvet:ignore             (same line) suppress diagnostics on this line
//	//confvet:returns-poolable   (func doc)  first result is a pooled value
//	                             the caller now owns
//	//confvet:recycles [param]   (func doc)  callee consumes the parameter
//	                             (releases it or takes over responsibility)
//	//confvet:pins [param]       (func doc)  callee pins the parameter,
//	                             making it safe to retain
//	//confvet:single-writer      (func doc)  function routes an SPSC ring
//	                             under a proven single-producer regime
//
// The ignore form documents an intentional exception at the offending line;
// the others declare invariants the analyzers then enforce (the summary
// grammar is specified in dataflow.go and DESIGN.md).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Mode selects how an analyzer consumes the loaded program.
type Mode int

const (
	// PerPackage analyzers run once per loaded package.
	PerPackage Mode = iota
	// WholeProgram analyzers run once over every loaded package together
	// (lock-order needs the cross-package acquisition graph).
	WholeProgram
)

// Analyzer is one confvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("atomic", "lockorder", …).
	Name string
	// Doc is the one-line description shown by confvet -list.
	Doc string
	// Mode selects per-package or whole-program operation.
	Mode Mode
	// Run executes the check. Per-package analyzers receive one package in
	// pass.Pkgs; whole-program analyzers receive all of them.
	Run func(pass *Pass) error
}

// Pass carries everything an analyzer needs for one run.
type Pass struct {
	Analyzer *Analyzer
	// Fset is the file set shared by every loaded package.
	Fset *token.FileSet
	// Pkgs are the packages under analysis (one for PerPackage mode).
	Pkgs []*Package
	// report sinks diagnostics.
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned at file:line.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	// Path is the offending control-flow path as an ordered list of line
	// numbers (dataflow analyzers only; nil for syntactic findings).
	Path []int `json:"path,omitempty"`
}

// String renders the go-vet-style "file:line:col: analyzer: message" form,
// with the control-flow path appended when present.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
	if len(d.Path) > 0 {
		parts := make([]string, len(d.Path))
		for i, l := range d.Path {
			parts[i] = fmt.Sprint(l)
		}
		s += " [path " + strings.Join(parts, " ") + "]"
	}
	return s
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPathf records a diagnostic at pos carrying the offending
// control-flow path (ordered line numbers).
func (p *Pass) ReportPathf(pos token.Pos, path []int, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Analyzers returns the full confvet analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicAnalyzer, LockOrderAnalyzer, HotPathAnalyzer, NoAllocAnalyzer, LifecycleAnalyzer,
		PoolSafeAnalyzer, RingSafeAnalyzer, WaiterSafeAnalyzer,
	}
}

// Run executes the given analyzers over the loaded packages and returns the
// surviving diagnostics sorted by position. Diagnostics on lines carrying a
// //confvet:ignore comment are suppressed.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	ignored := ignoreLines(pkgs)
	var diags []Diagnostic
	sink := func(d Diagnostic) {
		if ignored[fileLine{d.File, d.Line}] {
			return
		}
		diags = append(diags, d)
	}
	for _, a := range analyzers {
		switch a.Mode {
		case WholeProgram:
			pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, report: sink}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %w", a.Name, err)
			}
		default:
			for _, pkg := range pkgs {
				pass := &Pass{Analyzer: a, Fset: fset, Pkgs: []*Package{pkg}, report: sink}
				if err := a.Run(pass); err != nil {
					return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Column != diags[j].Column {
			return diags[i].Column < diags[j].Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

type fileLine struct {
	file string
	line int
}

// ignoreLines collects every (file, line) carrying a //confvet:ignore
// comment.
func ignoreLines(pkgs []*Package) map[fileLine]bool {
	out := map[fileLine]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, directiveIgnore) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					out[fileLine{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return out
}

// Directive names.
const (
	directiveHotPath = "confvet:hotpath"
	directiveNoAlloc = "confvet:noalloc"
	directiveIgnore  = "confvet:ignore"
)

// hasDirective reports whether the comment group carries the given
// "confvet:<name>" directive as its own comment line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// fieldOf resolves a selector expression to the struct field it denotes, or
// nil when the selector is not a field access.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified identifiers (pkg.Var) land in Uses, not Selections.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// funcFor resolves a call expression to the static *types.Func it invokes
// (a package function or a method called through a concrete receiver), or
// nil for dynamic calls (func values, interface methods).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls are dynamic.
				if isInterfaceRecv(sel.Recv()) {
					return nil
				}
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // qualified identifier pkg.Func
		}
	}
	return nil
}

func isInterfaceRecv(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
