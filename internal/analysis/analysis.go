// Package analysis implements confvet, the engine-invariant static-analysis
// layer: a small pass framework (stdlib only — go/parser, go/ast, go/types,
// go/importer) running the checks `go vet` cannot express. An analyzer
// stays only while some seeded engine bug in mutants_test.go is caught by
// it and by no tier-1 or -race test; its doc comment names that mutant.
//
//   - hotpath: functions tagged //confvet:hotpath must not call time.Now
//     (and friends), fmt, or iterate maps, and engine code must not call
//     time.Sleep.
//   - lockorder: the mutex-acquisition graph must stay acyclic.
//
// # Annotation grammar
//
// Directives are ordinary line comments beginning with "confvet:":
//
//	//confvet:hotpath  (func doc)   function is on the hot path
//	//confvet:ignore   (same line)  suppress diagnostics on this line
//
// The ignore form documents an intentional exception at the offending line.
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
	// Name identifies the analyzer in diagnostics ("hotpath", "lockorder", …).
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
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the go-vet-style "file:line:col: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full confvet analyzer suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPathAnalyzer, LockOrderAnalyzer}
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
