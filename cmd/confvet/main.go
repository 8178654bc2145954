// Command confvet runs the engine-invariant static analyzers from
// internal/analysis over the repository's own source. It is go-vet-shaped:
//
//	confvet ./...                 # analyze every package, vet-style output
//	confvet -json ./...           # machine-readable diagnostics
//	confvet -list                 # print the analyzer catalogue
//
// Exit status is 0 when no diagnostics are reported, 1 when findings exist,
// 2 on a loading or analysis failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("confvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.Analyzers()
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "confvet: unknown analyzer %q\n", name)
			return 2
		}
		analyzers = selected
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confvet: %v\n", err)
		return 2
	}

	// Render file names relative to the working directory, vet-style.
	if wd, err := os.Getwd(); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].File = rel
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "confvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
