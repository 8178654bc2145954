package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	return <-done
}

// TestExitCodeClean pins the success leg of the exit-code contract: a
// package with no findings exits 0 and prints nothing.
func TestExitCodeClean(t *testing.T) {
	out := capture(t, func() {
		if code := run([]string{"../../internal/clock"}); code != 0 {
			t.Errorf("clean package: exit %d, want 0", code)
		}
	})
	if out != "" {
		t.Errorf("clean package printed output: %q", out)
	}
}

// TestExitCodeFindings pins the findings leg: the seeded hotpath fixture
// must exit 1 and print vet-style lines naming the analyzer.
func TestExitCodeFindings(t *testing.T) {
	out := capture(t, func() {
		if code := run([]string{"-run", "hotpath", "../../internal/analysis/testdata/src/hotpath"}); code != 1 {
			t.Errorf("fixture with findings: exit %d, want 1", code)
		}
	})
	if !strings.Contains(out, "hotpath:") {
		t.Errorf("output does not name the analyzer:\n%s", out)
	}
}

// TestExitCodeErrors pins the failure leg: unknown analyzers and unloadable
// patterns both exit 2.
func TestExitCodeErrors(t *testing.T) {
	if code := run([]string{"-run", "nosuch", "."}); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
	if code := run([]string{"../../no/such/package"}); code != 2 {
		t.Errorf("unloadable pattern: exit %d, want 2", code)
	}
}

// TestJSONFields pins the machine-readable contract: every diagnostic
// carries its position and the analyzer name.
func TestJSONFields(t *testing.T) {
	var code int
	out := capture(t, func() {
		code = run([]string{"-json", "-run", "hotpath", "../../internal/analysis/testdata/src/hotpath"})
	})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatalf("no diagnostics decoded")
	}
	for _, d := range diags {
		if d.Analyzer != "hotpath" {
			t.Errorf("diagnostic missing analyzer name: %+v", d)
		}
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
	}
}

// TestJSONEmptyArray pins that -json on a clean tree prints [] rather than
// null, so downstream tooling can always range over the result.
func TestJSONEmptyArray(t *testing.T) {
	out := capture(t, func() {
		if code := run([]string{"-json", "../../internal/clock"}); code != 0 {
			t.Errorf("clean package: exit %d, want 0", code)
		}
	})
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output = %q, want []", out)
	}
}

// TestListNamesEveryAnalyzer pins the catalogue: one line per analyzer.
func TestListNamesEveryAnalyzer(t *testing.T) {
	out := capture(t, func() {
		if code := run([]string{"-list"}); code != 0 {
			t.Errorf("-list: exit %d, want 0", code)
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{"hotpath", "lockorder"}
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want the %s analyzer", i, lines[i], name)
		}
	}
}
