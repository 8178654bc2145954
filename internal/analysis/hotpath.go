package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAnalyzer enforces hot-path hygiene: functions tagged
// //confvet:hotpath (receiver Put/GetBatch, firing loops, sketch record
// paths) must not make a clock syscall via time.Now and friends, must not
// call allocation-heavy fmt helpers, and must not iterate maps (randomized
// order plus a hash walk per firing). Only the tagged function's own body is
// checked; helpers it calls earn their own tag when they share the path.
//
// It also bans time.Sleep from every file under repro/internal/ except
// repro/internal/clock: an engine waits through clock.Park, because a
// short time.Sleep rounds up to the Go netpoller's 1 ms.
//
// It earns its place with two mutants (mutants_test.go) that cost time but
// change no result, so no test sees them: hot_time_now (RingReceiver.ingest
// reading time.Now instead of its clock) and sleep_outside_clock (PNCWF's
// 1 ms source nap as time.Sleep).
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "no time.Now, fmt, or map iteration in //confvet:hotpath functions; no time.Sleep in engine code",
	Mode: PerPackage,
	Run:  runHotPath,
}

// hotClockFuncs are the time functions that cost a clock read per call.
var hotClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runHotPath(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			if sleepBanned(pkg.Path) {
				checkNoSleep(pass, pkg.Info, f)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, directiveHotPath) {
					continue
				}
				checkHotBody(pass, pkg.Info, fd)
			}
		}
	}
	return nil
}

func checkHotBody(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := funcFor(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if hotClockFuncs[fn.Name()] {
					pass.Reportf(n.Pos(), "hot path %s calls time.%s; thread a clock or cache the reading", name, fn.Name())
				}
			case "fmt":
				pass.Reportf(n.Pos(), "hot path %s calls fmt.%s, which allocates; move formatting off the hot path", name, fn.Name())
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "hot path %s iterates a map; order is randomized and the hash walk costs per firing", name)
				}
			}
		}
		return true
	})
}

// sleepBanned reports whether a package is engine code that must wait
// through clock.Park: anything under repro/internal/ but the clock itself.
func sleepBanned(path string) bool {
	return strings.HasPrefix(path, "repro/internal/") && path != "repro/internal/clock"
}

func checkNoSleep(pass *Pass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := funcFor(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				pass.Reportf(call.Pos(), "engine code calls time.Sleep, which rounds a short wait up to 1 ms; park through clock.Park")
			}
		}
		return true
	})
}
