package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Package is one loaded, fully type-checked package ready for analysis.
// Only non-test files are loaded: the invariants the analyzers enforce
// (determinism, history release, lock discipline) bind production code;
// tests are free to use wall clocks and global randomness.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` in dir over the patterns
// and returns every listed package (targets and dependencies).
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data produced by
// `go list -export`, through the standard gc importer.
type exportImporter struct {
	gc      types.ImporterFrom
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.ImportFrom(path, dir, mode)
}

// newInfo allocates the type-information maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// parseFiles parses the named files in dir with comments retained.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck checks already-parsed files as import path ipath, resolving
// imports through imp.
func typeCheck(fset *token.FileSet, ipath, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newInfo()
	tpkg, _ := conf.Check(ipath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v (and %d more)", ipath, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{ImportPath: ipath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load lists the patterns with the go tool (run in dir, which must lie
// inside the module) and returns every matched package parsed from
// source and type-checked against the export data of its dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := typeCheck(fset, t.ImportPath, t.Dir, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadDir type-checks a single directory of Go files (an analysistest
// fixture) under the given fake import path. Imports are resolved
// against the enclosing module: moduleDir is any directory inside it
// (test packages pass "."). The fake path lets a fixture stand in for an
// in-scope package (e.g. "repro/internal/sim/fixture") while importing
// the real repro packages it exercises.
func LoadDir(dir, importPath, moduleDir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	// Collect the fixture's imports and resolve them (plus dependencies)
	// to export data in one go list run.
	seen := map[string]bool{}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || path == "unsafe" || seen[path] {
				continue
			}
			seen[path] = true
			imports = append(imports, path)
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(moduleDir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := newExportImporter(fset, exports)
	return typeCheck(fset, importPath, dir, files, imp)
}
