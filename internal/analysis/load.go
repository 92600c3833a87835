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
	"strconv"
	"strings"
)

// Package is one parsed, type-checked module package.
type Package struct {
	// Path is the package's import path ("paratreet/internal/cache").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Name is the package clause name.
	Name string
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allows is every //paratreet:allow waiver comment, well-formed or
	// not, for the framework's hygiene checks.
	allows []allowEntry
	// allowLines maps analyzer name -> filename -> lines carrying a
	// reasoned //paratreet:allow(name) waiver. A waiver on line L covers
	// findings on L and L+1, so it works both as a trailing and a
	// preceding comment.
	allowLines map[string]map[string][]int
}

func (p *Package) allowed(analyzer, file string, line int) bool {
	byFile := p.allowLines[analyzer]
	if byFile == nil {
		return false
	}
	for _, l := range byFile[file] {
		if line == l || line == l+1 {
			return true
		}
	}
	return false
}

// Loader parses and type-checks packages of one Go module using only the
// standard library. Module-internal imports are resolved from source in
// dependency order; standard-library imports go through the stdlib source
// importer (importer.ForCompiler "source"), so no export data, build cache,
// or golang.org/x/tools machinery is needed.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = no Go files
	loading map[string]bool     // import-cycle detection
}

// NewLoader locates the module containing dir (by walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", file)
}

// Load resolves the given patterns (directory paths, optionally ending in
// /... for a recursive walk; relative paths are relative to base) and
// returns the matched packages, parsed and type-checked, sorted by import
// path. Dependencies of matched packages are loaded too but only matched
// packages are returned.
func (l *Loader) Load(base string, patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(base, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand turns patterns into a deduplicated, sorted list of candidate
// package directories.
func (l *Loader) expand(base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		dir = filepath.Clean(dir)
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if skipDir(d.Name()) && path != dir {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Keep only directories with at least one non-test Go file.
	var out []string
	for _, dir := range dirs {
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		if len(names) > 0 {
			out = append(out, dir)
		}
	}
	sort.Strings(out)
	return out, nil
}

// skipDir reports whether a directory is never a module package dir.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// goFilesIn lists the non-test Go files of dir that build for this host
// (file-name and //go:build constraints, as go build reads them), sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// isLocal reports whether an import path belongs to this module.
func (l *Loader) isLocal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// loadDir parses and type-checks the package in dir (and, first, its
// module-local dependencies). Returns (nil, nil) when dir holds no Go
// files. Results are memoized by import path.
func (l *Loader) loadDir(dir string) (*Package, error) {
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

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = file.Name.Name
		} else if file.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: mixed package names %q and %q", dir, pkgName, file.Name.Name)
		}
		files = append(files, file)
	}

	// Load module-local dependencies first, so type-checking this package
	// finds them memoized (go/types invokes Import mid-check).
	for _, file := range files {
		for _, imp := range file.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.isLocal(ipath) {
				if _, err := l.loadDir(l.dirFor(ipath)); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Name:   pkgName,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		allows: collectAllows(l.Fset, files),
	}
	pkg.allowLines = buildAllowLines(pkg.allows)
	l.pkgs[path] = pkg
	return pkg, nil
}

// NewTestPackage wraps an externally parsed and type-checked package (the
// analysistest harness loads testdata packages outside the module) into a
// Package, wiring up waiver-comment collection.
func NewTestPackage(dir, name string, fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) *Package {
	pkg := &Package{
		Path:   tpkg.Path(),
		Dir:    dir,
		Name:   name,
		Fset:   fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		allows: collectAllows(fset, files),
	}
	pkg.allowLines = buildAllowLines(pkg.allows)
	return pkg
}

// loaderImporter adapts Loader to types.Importer: module-local paths come
// from the loader's memo, everything else from the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isLocal(path) {
		pkg, err := l.loadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
