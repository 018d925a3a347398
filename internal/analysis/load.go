package analysis

import (
	"errors"
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

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // module-qualified import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors. Analysis proceeds on a
	// best-effort basis when they occur (fixture files are allowed to be
	// sloppy about unused variables, for example).
	TypeErrors []error
}

// Loader discovers, parses, and type-checks packages of one module. It
// resolves module-local imports by mapping import paths onto directories
// under the module root and everything else through the stdlib source
// importer, so no pre-built export data or network access is needed.
type Loader struct {
	Root       string // directory containing go.mod
	ModulePath string
	Fset       *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package // memoized module-local packages by import path
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader creates a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:       root,
		ModulePath: modPath,
		Fset:       fset,
		pkgs:       make(map[string]*Package),
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// source under the module root, everything else delegates to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside the module root %s", dir, l.Root)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadPath loads (or returns the memoized) package at a module-local
// import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.loadDir(l.dirFor(path), path)
}

// LoadDir loads the package in dir (which must live under the module
// root). The fixture tests use it directly.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.pathFor(abs)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.loadDir(abs, path)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Fset: l.Fset}
	// Memoize before type-checking: import cycles would otherwise
	// recurse forever (the type checker reports the cycle itself).
	l.pkgs[path] = pkg
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			delete(l.pkgs, path)
			return nil, fmt.Errorf("analysis: parsing %s: %w", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	// errcheck reads call types and resolved identifiers, nothing else.
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		// Collect soft errors and keep going: errcheck works on the
		// best-effort type information that remains.
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, info)
	pkg.Info = info
	return pkg, nil
}

// LoadPatterns resolves command-line package patterns ("./...", "./dir",
// ".", or module-qualified import paths) into loaded packages, sorted by
// import path. Directories named testdata or vendor, and those whose
// name starts with "." or "_", are never walked.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		if strings.HasPrefix(pat, l.ModulePath) {
			// Module-qualified: rewrite to a root-relative form.
			pat = "./" + strings.TrimPrefix(strings.TrimPrefix(pat, l.ModulePath), "/")
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []*Package
	for dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			if errors.As(err, new(*build.NoGoError)) {
				continue
			}
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
