// Package noalloc turns PR 7's zero-allocation guarantees from an
// advisory benchmark diff into a hard lint gate. A hot-path function is
// annotated
//
//	//gocad:noalloc
//
// in its doc comment, and this analyzer runs the compiler's escape
// analysis (go build -gcflags=-m) over the annotated package, failing
// when any annotated function contains a heap allocation ("escapes to
// heap" / "moved to heap"; "leaking param" lines are ownership notes,
// not allocations, and are ignored).
//
// The annotation contract (DESIGN.md §13): an annotated function must
// keep its slow paths — growth, error construction, anything that
// legitimately allocates — outlined into separate //go:noinline
// helpers. The compiler attributes an inlined callee's allocations to
// the caller's call-site line, so a slow-path helper that gets inlined
// back would (correctly) fail the gate; //go:noinline keeps the
// attribution, and the annotation's meaning, exact: the annotated
// body itself performs zero heap allocations in steady state.
//
// The build runs with the process environment's GOFLAGS, so CI invokes
// the gate (make lint) under the same flags as make bench and make
// profile, and the escape analysis matches benchmark conditions. Build caching makes repeat runs cheap:
// the go tool replays -m diagnostics from the cache.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Directive marks a function whose body must not allocate.
const Directive = "//gocad:noalloc"

// Analyzer is the noalloc check.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc: "run the compiler's escape analysis over //gocad:noalloc-annotated " +
		"hot-path functions and fail when an annotated function gains a heap " +
		"allocation (slow paths must be outlined into //go:noinline helpers)",
	Run: run,
}

// region is one annotated function's source extent.
type region struct {
	name      string
	file      string
	startLine int
	endLine   int
}

func run(pass *lint.Pass) error {
	var regions []region
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			start := pass.Fset.Position(fd.Pos())
			end := pass.Fset.Position(fd.Body.Rbrace)
			regions = append(regions, region{
				name:      funcDisplayName(fd),
				file:      start.Filename,
				startLine: start.Line,
				endLine:   end.Line,
			})
		}
	}
	if len(regions) == 0 {
		return nil
	}
	allocs, err := escapeSites(pass)
	if err != nil {
		return err
	}
	for _, a := range allocs {
		for _, r := range regions {
			if a.file == r.file && a.line >= r.startLine && a.line <= r.endLine {
				pass.Reportf(linePos(pass, a.file, a.line),
					"//gocad:noalloc function %s allocates: %s (outline the slow path into a //go:noinline helper, or drop the annotation)",
					r.name, a.msg)
				break
			}
		}
	}
	return nil
}

// annotated reports whether the declaration's doc comment carries the
// noalloc directive on a line of its own.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// funcDisplayName renders "Name" or "(Recv).Name" for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// escapeSite is one compiler-reported heap allocation.
type escapeSite struct {
	file string
	line int
	msg  string
}

// escapeRe matches the file:line:col: message lines of -gcflags=-m.
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeSites builds the pass's package with -gcflags=-m and returns
// every reported heap allocation, resolved to absolute-ish file paths
// matching the pass's FileSet positions.
func escapeSites(pass *lint.Pass) ([]escapeSite, error) {
	if len(pass.Files) == 0 {
		return nil, nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	args := []string{"build", "-gcflags=-m"}
	if pass.Pkg.Name() == "main" {
		args = append(args, "-o", os.DevNull)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("noalloc: go build -gcflags=-m in %s: %v\n%s", dir, err, out)
	}
	var sites []escapeSite
	for _, raw := range strings.Split(string(out), "\n") {
		m := escapeRe.FindStringSubmatch(raw)
		if m == nil {
			continue
		}
		msg := m[4]
		if !isAllocation(msg) {
			continue
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		sites = append(sites, escapeSite{file: file, line: line, msg: msg})
	}
	return sites, nil
}

// isAllocation distinguishes real heap allocations from the escape
// analysis's ownership commentary.
func isAllocation(msg string) bool {
	if strings.HasPrefix(msg, "leaking param") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

// linePos resolves (file, line) back to a token.Pos in the pass's
// FileSet so the diagnostic lands on the allocating line.
func linePos(pass *lint.Pass, file string, line int) token.Pos {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || tf.Name() != file {
			continue
		}
		if line >= 1 && line <= tf.LineCount() {
			return tf.LineStart(line)
		}
		return f.Pos()
	}
	return pass.Files[0].Pos()
}
