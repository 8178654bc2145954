package analysis

import (
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the module root (two levels above this package).
func repoRoot(tb testing.TB) string {
	tb.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		tb.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// BenchmarkConfvetTree measures one full lint pass — load, type-check and
// all analyzers — over the whole repository tree. CI logs this next to the
// lint job so analyzer regressions show up as wall-time jumps.
func BenchmarkConfvetTree(b *testing.B) {
	root := repoRoot(b)
	for i := 0; i < b.N; i++ {
		pkgs, err := Load(LoadConfig{Dir: root}, "./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := Run(Analyzers(), pkgs)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("tree is not confvet-clean: %d findings (first: %s)", len(diags), diags[0].String())
		}
	}
}
