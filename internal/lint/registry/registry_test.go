package registry_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/registry"
)

// TestRepoIsClean is the CI acceptance gate in test form: the analyzer
// suite must find nothing in the tree. Adding a time.Now() to the
// scheduler, importing os in a sandboxed package, or dispatching RMI
// under a lock makes this test (and ci.sh) fail.
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
// non-test file under internal/ must be reached from some non-test file
// of the module or of benchmark/, or carry a "Used only by tests:" line
// in its doc comment naming the tests it serves: at least one Test, Fuzz
// or Benchmark function, each declared in some _test.go file of the
// module, so the line goes stale loudly when those tests are deleted.
// Callers are resolved by type: a function or method is reached where
// code other than its own body names it, and a method also where code
// calls a method of the same name on an interface of this module that
// its type implements. Calls on standard-library interfaces do not
// count, or resp.Body.Close() would reach every Close() error; the
// methods the standard library itself calls through its interfaces are
// exempt by name.
//
// The root package, the gocad facade, is held to the same rule without
// the doc-line exemption: every name it exports (function, type alias,
// constant or variable) must be named by a non-test file of another
// package, which in practice means a program under examples/.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and benchmark/")
	}
	stdlibCalled := map[string]bool{"Error": true, "String": true, "Unwrap": true, "Import": true, "Read": true, "Write": true}
	root := filepath.Join("..", "..", "..")
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := lint.Load(filepath.Join(root, "benchmark"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t, root)
	reached := map[string]bool{}         // (*pkg.T).M or pkg.F, as types.Func.FullName
	viaIface := map[string]*types.Func{} // interface methods called, by type and name
	var named []*types.Named             // every named type, for interface dispatch
	facadeUsed := map[string]bool{}      // root-package names used by other packages
	for _, pkg := range append(pkgs, bench...) {
		if pkg.ImportPath != "repro" {
			for _, obj := range pkg.Info.Uses {
				if obj.Pkg() != nil && obj.Pkg().Path() == "repro" {
					facadeUsed[obj.Name()] = true
				}
			}
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						if fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "repro") {
							viaIface[types.TypeString(recv.Type(), nil)+"."+fn.Name()] = fn
						}
					} else {
						reached[fn.Origin().FullName()] = true
					}
					return true
				})
			}
		}
	}
	// A call on an interface reaches the method of that name, promoted
	// or declared, of every type that implements the interface. The
	// comparison is by parameter and result types as strings: each Load
	// type-checks against its own export data, so one type can appear as
	// two distinct types.Type values.
	shape := func(sig *types.Signature) string {
		var b strings.Builder
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
			}
			b.WriteString(";")
		}
		return b.String()
	}
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
	calls:
		for _, call := range viaIface {
			iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				sel := ms.Lookup(m.Pkg(), m.Name())
				if sel == nil || shape(sel.Obj().Type().(*types.Signature)) != shape(m.Type().(*types.Signature)) {
					continue calls
				}
			}
			reached[ms.Lookup(call.Pkg(), call.Name()).Obj().(*types.Func).Origin().FullName()] = true
		}
	}
	exports := 0
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.ImportPath, "repro/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				exports++
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				recv := fn.Type().(*types.Signature).Recv()
				if reached[fn.FullName()] || recv != nil && stdlibCalled[fn.Name()] {
					continue
				}
				pos := pkg.Fset.Position(fd.Pos())
				doc := fd.Doc.Text()
				i := strings.Index(doc, testsMarker)
				if i < 0 {
					t.Errorf("%s: %s has no caller outside tests", pos, fn.FullName())
					continue
				}
				line, _, _ := strings.Cut(doc[i+len(testsMarker):], "\n\n")
				names := testRef.FindAllString(line, -1)
				if len(names) == 0 {
					t.Errorf("%s: %s: %q names no Test, Fuzz or Benchmark function", pos, fn.FullName(), testsMarker)
				}
				for _, name := range names {
					if !tests[name] {
						t.Errorf("%s: %s: %q names %s, which no _test.go file declares", pos, fn.FullName(), testsMarker, name)
					}
				}
			}
		}
	}
	if exports < 100 {
		t.Fatalf("suspiciously few exported functions found: %d", exports)
	}
	facade := 0
	for _, pkg := range pkgs {
		if pkg.ImportPath != "repro" {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			obj := pkg.Types.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			facade++
			if !facadeUsed[name] {
				t.Errorf("%s: gocad.%s is named by no program", pkg.Fset.Position(obj.Pos()), name)
			}
		}
	}
	if facade < 10 {
		t.Fatalf("suspiciously few facade exports found: %d", facade)
	}
}

const testsMarker = "Used only by tests:"

// testRef matches a test function's name as go test recognises it.
var testRef = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// testFuncs returns the names of the Test, Fuzz and Benchmark functions
// declared in the _test.go files of the module at root. Nested modules,
// testdata and the directories the go tool ignores are skipped.
func testFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testRef.FindString(fd.Name.Name) == fd.Name.Name {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 100 {
		t.Fatalf("suspiciously few test functions found: %d", len(names))
	}
	return names
}

// TestSuiteComplete pins the analyzer roster so a dropped registration
// fails loudly instead of silently weakening CI.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"simdeterminism", "lockheld-rmi", "remote-err",
		"capability", "noalloc",
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
