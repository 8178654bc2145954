package analysis

// ringsafe enforces the two static ring invariants from internal/ring:
//
//   - An SPSC ring stored in a struct field must have a statically single
//     producer: at most one function may TryPush to that field, unless
//     every function that routes the field to an SPSC ring carries the
//     //confvet:single-writer directive (window.Inbox.Init's multiProducer
//     switch is the blessed site — the single-producer regime is proven
//     by the workflow graph, not the type system).
//   - A TryPush result may not be discarded. Lock-free pushes fail when
//     the ring is full; the sticky-overflow receivers consult the result
//     and spill to the overflow list — dropping it silently loses events.
//     Intentional drops are //confvet:ignore sites with a justification.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var RingSafeAnalyzer = &Analyzer{
	Name: "ringsafe",
	Doc:  "SPSC rings need a statically single producer; TryPush results may not be discarded",
	Mode: WholeProgram,
	Run:  runRingSafe,
}

// spscSite is one assignment routing a NewSPSC result into a field.
type spscSite struct {
	pos     token.Pos
	guarded bool // enclosing function carries //confvet:single-writer
}

// pusher is one function containing a TryPush to a given field.
type pusher struct {
	fn  *types.Func
	pos token.Pos
}

func runRingSafe(pass *Pass) error {
	pkgs := allLoaded(pass.Pkgs)
	sums := collectSummaries(pkgs)
	analyzed := map[*Package]bool{}
	for _, pkg := range pass.Pkgs {
		analyzed[pkg] = true
	}

	spsc := map[*types.Var][]spscSite{}  // field -> SPSC construction sites
	pushers := map[*types.Var][]pusher{} // field -> pushing functions
	reportable := map[*types.Var]bool{}  // field declared in an analyzed package

	for _, pkg := range pkgs {
		inScope := analyzed[pkg]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var encl *types.Func
				if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					encl = f
				}
				guarded := false
				if encl != nil {
					if sum := sums[encl]; sum != nil && sum.singleWriter {
						guarded = true
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						collectSPSCAssign(pkg.Info, n, guarded, inScope, spsc, reportable)
						if inScope {
							checkBlankTryPush(pass, pkg.Info, n)
						}
					case *ast.ExprStmt:
						if inScope {
							checkDiscardedTryPush(pass, pkg.Info, n)
						}
					case *ast.CallExpr:
						if f := tryPushField(pkg.Info, n); f != nil && encl != nil {
							pushers[f] = append(pushers[f], pusher{fn: encl, pos: n.Pos()})
						}
					}
					return true
				})
			}
		}
	}

	// A field is in violation when some SPSC routing into it is unguarded
	// and more than one function pushes to it.
	var fields []*types.Var
	for f := range spsc {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, f := range fields {
		if !reportable[f] {
			continue
		}
		distinct := map[*types.Func]bool{}
		var lines []int
		for _, p := range pushers[f] {
			if !distinct[p.fn] {
				distinct[p.fn] = true
				lines = append(lines, pass.Fset.Position(p.pos).Line)
			}
		}
		if len(distinct) <= 1 {
			continue
		}
		sort.Ints(lines)
		for _, site := range spsc[f] {
			if site.guarded {
				continue
			}
			pass.ReportPathf(site.pos, lines,
				"SPSC ring in field %s has %d statically distinct producers; use MPMC or mark the construction //confvet:single-writer",
				f.Name(), len(distinct))
		}
	}
	return nil
}

// collectSPSCAssign records "x.field = NewSPSC[...](…)" routing sites.
func collectSPSCAssign(info *types.Info, as *ast.AssignStmt, guarded, inScope bool,
	spsc map[*types.Var][]spscSite, reportable map[*types.Var]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeOf(info, call)
		if fn == nil || fn.Name() != "NewSPSC" {
			continue
		}
		sel, ok := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		field := fieldOf(info, sel)
		if field == nil {
			continue
		}
		spsc[field] = append(spsc[field], spscSite{pos: as.Pos(), guarded: guarded})
		if inScope {
			reportable[field] = true
		}
	}
}

// tryPushField resolves "x.field.TryPush(…)" to the ring-holding field.
func tryPushField(info *types.Info, call *ast.CallExpr) *types.Var {
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "TryPush" {
		return nil
	}
	recv := callReceiver(info, call)
	if recv == nil {
		return nil
	}
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldOf(info, sel)
}

// checkBlankTryPush reports "_ = x.TryPush(v)" discards.
func checkBlankTryPush(pass *Pass, info *types.Info, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "TryPush" {
		return
	}
	for _, l := range as.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	pass.Reportf(call.Pos(), "TryPush result discarded: a full ring drops the value silently (check the result or spill to overflow)")
}

// checkDiscardedTryPush reports a TryPush whose boolean result is dropped
// on the floor as a statement.
func checkDiscardedTryPush(pass *Pass, info *types.Info, stmt *ast.ExprStmt) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "TryPush" {
		return
	}
	pass.Reportf(call.Pos(), "TryPush result discarded: a full ring drops the value silently (check the result or spill to overflow)")
}
