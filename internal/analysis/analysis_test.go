package analysis

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAnalyzerGolden runs each analyzer over its seeded fixture package and
// compares the rendered diagnostics against a golden file. Every analyzer
// must catch its seeded violation — an empty diagnostic set fails.
func TestAnalyzerGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := Load(LoadConfig{Dir: dir}, ".")
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			diags, err := Run([]*Analyzer{a}, pkgs)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(diags) == 0 {
				t.Fatalf("analyzer %s found nothing in its fixture", a.Name)
			}
			var b strings.Builder
			for _, d := range diags {
				d.File = filepath.Base(d.File)
				// Positions embedded in messages (lock-cycle edges) carry
				// absolute paths; strip the fixture dir so the golden file
				// is location-independent.
				d.Message = strings.ReplaceAll(d.Message, abs+string(filepath.Separator), "")
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()
			goldenPath := filepath.Join("testdata", a.Name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestIgnoreDirective pins the suppression grammar: the hotpath fixture's
// recordIgnored carries a violation on a //confvet:ignore line, which must
// not surface.
func TestIgnoreDirective(t *testing.T) {
	pkgs, err := Load(LoadConfig{Dir: filepath.Join("testdata", "src", "hotpath")}, ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Analyzer{HotPathAnalyzer}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "recordIgnored") {
			t.Errorf("diagnostic on a //confvet:ignore line surfaced: %s", d)
		}
	}
}

// TestLoadModuleInternalImport pins the chained importer: a fixture that
// imports repro/internal/value must type-check from source.
func TestLoadModuleInternalImport(t *testing.T) {
	pkgs, err := Load(LoadConfig{Dir: filepath.Join("testdata", "src", "modimport")}, ".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	found := false
	for _, imp := range pkgs[0].Types.Imports() {
		if imp.Path() == "repro/internal/value" {
			found = true
		}
	}
	if !found {
		t.Errorf("repro/internal/value not among imports: %v", pkgs[0].Types.Imports())
	}
}

// TestDiagnosticJSON pins the machine-readable shape.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "f.go", Line: 3, Column: 7, Analyzer: "hotpath", Message: "m"}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"f.go","line":3,"column":7,"analyzer":"hotpath","message":"m"}`
	if string(data) != want {
		t.Errorf("got %s want %s", data, want)
	}
	if s := d.String(); s != "f.go:3:7: hotpath: m" {
		t.Errorf("String() = %q", s)
	}
}
