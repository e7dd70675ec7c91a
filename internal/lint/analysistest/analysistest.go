// Package analysistest runs a lint.Analyzer over a fixture package and
// checks its diagnostics against golang.org/x/tools-style expectations:
// a fixture line produces findings iff it carries a trailing
//
//	// want "regexp" ["regexp" ...]
//
// comment, one quoted regexp per expected diagnostic on that line. The
// fixture directory is loaded under a caller-chosen fake import path, so
// a fixture can stand in for an in-scope package (the analyzers gate on
// import-path prefixes) while importing the real repro packages whose
// types the checks match on.
package analysistest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the quoted patterns of a want comment — either
// interpreted ("...") or raw (`...`) string syntax.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one expected diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads dir as importPath and applies the analyzer, failing t on any
// mismatch between reported diagnostics and // want expectations.
//
// Used only by tests: TestSandboxedFixture, TestOutOfScopeFixture,
// TestLockHeldRMI, TestRemoteErrors, TestKernelScope, TestOutOfScope,
// TestHotFixture.
func Run(t *testing.T, dir, importPath string, a *lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(dir, importPath, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	expects := parseExpectations(t, dir)
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		if !claim(expects, d) {
			t.Errorf("%s: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(e.file), e.line, e.pattern)
		}
	}
}

// claim marks the first unmatched expectation covering d and reports
// whether one existed.
func claim(expects []*expectation, d lint.Diagnostic) bool {
	for _, e := range expects {
		if e.matched || e.line != d.Pos.Line || e.file != d.Pos.Filename {
			continue
		}
		if e.pattern.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseExpectations scans every fixture file for // want comments.
func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []*expectation
	for _, entry := range entries {
		if entry.IsDir() || filepath.Ext(entry.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, entry.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllString(text[len("want "):], -1) {
					unq, err := strconv.Unquote(m)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", path, pos.Line, m, err)
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", path, pos.Line, unq, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}
