package analysis

import (
	"go/ast"
	"go/types"
)

// LifecycleAnalyzer enforces the actor lifecycle contract: Fire is the
// steady-state phase and must not re-enter setup or teardown — it may not
// call Initialize or Wrapup.
var LifecycleAnalyzer = &Analyzer{
	Name: "lifecycle",
	Doc:  "Fire must not call Initialize/Wrapup",
	Mode: PerPackage,
	Run:  runLifecycle,
}

func runLifecycle(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || fd.Name.Name != "Fire" {
					continue
				}
				checkFire(pass, pkg.Info, fd)
			}
		}
	}
	return nil
}

func checkFire(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Initialize" && name != "Wrapup" {
			return true
		}
		// Only flag method calls (lifecycle entry points live on actors);
		// a free function that happens to share the name is fine.
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			pass.Reportf(call.Pos(), "Fire calls %s; lifecycle phases are driven by the director, not the firing", name)
		}
		return true
	})
}
