package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/stafilos").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset is the file set shared by the whole load.
	Fset *token.FileSet
	// Files are the parsed files, comments included.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// LoadConfig configures a Load.
type LoadConfig struct {
	// Dir is the directory patterns are resolved against (default ".").
	// The enclosing module (nearest go.mod) defines the import-path root;
	// without one, each package loads standalone under its directory name.
	Dir string
}

// loader resolves and type-checks packages. Module-internal imports are
// served from the loader's own cache; everything else (the standard
// library) is type-checked from $GOROOT/src by the go/importer source
// importer, which needs no compiled export data.
type loader struct {
	cfg     LoadConfig
	fset    *token.FileSet
	modPath string // module path from go.mod ("" = no module)
	modRoot string // directory containing go.mod
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// Load parses and type-checks the packages matching patterns. Patterns are
// directory-based: "./..." walks every package under cfg.Dir, other
// patterns name single package directories ("./internal/stafilos").
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir

	// The source importer type-checks dependencies from $GOROOT/src through
	// go/build's default context. Cgo-enabled variants of net/os/user would
	// make it shell out to the cgo tool (and a C compiler); forcing the
	// pure-Go build keeps the load hermetic and deterministic.
	build.Default.CgoEnabled = false

	l := &loader{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.modRoot, l.modPath = findModule(cfg.Dir)

	dirs, err := l.resolvePatterns(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	seen := map[string]bool{}
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg == nil || seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		out = append(out, pkg)
	}
	return out, nil
}

// findModule walks up from dir looking for go.mod and returns the module
// root and module path ("", "" when not inside a module).
func findModule(dir string) (root, path string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// resolvePatterns expands patterns into package directories.
func (l *loader) resolvePatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Join(l.cfg.Dir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if l.hasGoFiles(path) {
					dirs = append(dirs, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := p
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.cfg.Dir, filepath.FromSlash(p))
		}
		if !l.hasGoFiles(dir) {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains loadable Go files.
func (l *loader) hasGoFiles(dir string) bool {
	names, err := l.goFiles(dir)
	return err == nil && len(names) > 0
}

// goFiles lists the Go files of dir that participate in the load: build
// constraints honored, test files excluded.
func (l *loader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a package directory to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	if l.modRoot != "" && l.modPath != "" {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			if rel == "." {
				return l.modPath, nil
			}
			return l.modPath + "/" + filepath.ToSlash(rel), nil
		}
	}
	return filepath.Base(dir), nil
}

// dirForImport maps a module-internal import path back to a directory.
func (l *loader) dirForImport(path string) string {
	if path == l.modPath {
		return l.modRoot
	}
	rel := strings.TrimPrefix(path, l.modPath+"/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

// loadDir parses and type-checks the package in dir (cached by import
// path). Directories holding only excluded files yield nil.
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err)
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, len(typeErrs))
		for i, e := range typeErrs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter routes module-internal imports to the loader and everything
// else to the source importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		pkg, err := l.loadDir(l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files for import %q", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
