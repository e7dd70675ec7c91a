package registry_test

import (
	"os/exec"
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
