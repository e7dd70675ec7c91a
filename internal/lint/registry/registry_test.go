package registry_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/registry"
)

// TestRepoIsClean is the CI acceptance gate in test form: the analyzer
// suite must find nothing in the tree. Reverting the scenario.Run
// history release, adding a time.Now() to the scheduler, or dispatching
// RMI under a lock makes this test (and ci.sh) fail.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load(".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := lint.RunAnalyzers(pkgs, registry.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
	}
}

// TestNoGobImports keeps the reflective gob codec out of the module:
// wire format v1 (DESIGN.md §12) is the only serialization, and a
// second decoder would be a second attack surface to fuzz. Test files
// are checked too.
func TestNoGobImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-f",
		`{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}`,
		"repro/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously few packages listed: %d", len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if imp == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", fields[0])
			}
		}
	}
}

// TestNoHTTPInServingCore keeps the HTTP stack out of the packages a
// provider or a benchmark embeds: only gateway/sidecar serves HTTP, so a
// program that links the gateway without it does not link and
// initialise net/http, TLS or pprof (DESIGN.md §15.5). Test files are
// not checked.
func TestNoHTTPInServingCore(t *testing.T) {
	forbidden := map[string]bool{"net/http": true, "net/http/pprof": true, "crypto/tls": true}
	for _, pkg := range []string{
		"repro/internal/gateway", "repro/internal/core", "repro/internal/fault",
		"repro/internal/provider", "repro/internal/rmi",
	} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) < 10 {
			t.Fatalf("%s: suspiciously few dependencies listed: %d", pkg, len(deps))
		}
		for _, dep := range deps {
			if forbidden[dep] {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}
}

// TestEveryExportHasACaller keeps API that only tests reach from
// growing back: every exported function or method declared in a
// non-test file under internal/ must be named by some non-test file of
// the module or of benchmark/, or carry a "Used only by tests:" line in
// its doc comment naming the tests it serves. The match is by name, so
// a method shares its callers with every method of the same name.
// Methods the standard library calls through an interface are exempt.
func TestEveryExportHasACaller(t *testing.T) {
	stdlibCalled := map[string]bool{"Error": true, "String": true, "Unwrap": true, "Import": true}
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	type export struct {
		decl *ast.FuncDecl
		pos  token.Position
	}
	var exports []export
	named := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[fn.Name] = true
			if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
				pos := fset.Position(fn.Pos())
				pos.Filename = filepath.ToSlash(rel)
				exports = append(exports, export{fn, pos})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) < 100 {
		t.Fatalf("suspiciously few exported functions found: %d", len(exports))
	}
	for _, e := range exports {
		name := e.decl.Name.Name
		if named[name] || e.decl.Recv != nil && stdlibCalled[name] ||
			strings.Contains(e.decl.Doc.Text(), "Used only by tests:") {
			continue
		}
		t.Errorf("%s: %s has no caller outside tests", e.pos, name)
	}
}

// TestSuiteComplete pins the analyzer roster so a dropped registration
// fails loudly instead of silently weakening CI.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"simdeterminism", "lockheld-rmi", "remote-err",
		"capability", "wiresym", "noalloc",
	}
	all := registry.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
	}
}
