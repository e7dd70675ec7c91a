// Package histrelease generalizes the PrimaryOutput history leak fixed
// in PR 2 into a machine-checked rule: kernel code that observes a
// scheduler run's primary-output history (PrimaryOutput.History) owns
// that history and must release it (ReleaseHistory or ClearHistory) on
// every path out of the function — otherwise each of the thousands of
// injection runs a fault simulation performs, each under its own
// SchedulerID, leaves its observations behind, and memory grows without
// bound.
//
// The check is lexical within one function: after a History call, a
// release must appear before any return statement; alternatively a
// deferred release anywhere in the function covers all paths. It applies
// to non-test code under internal/sim, internal/fault and internal/core
// — one-shot consumers (examples, cmd binaries, trace export) exit the
// process and are out of scope.
package histrelease

import (
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/lint"
)

// TargetPackages is the import-path scope of the check (prefix match).
var TargetPackages = []string{
	"repro/internal/sim",
	"repro/internal/fault",
	"repro/internal/core",
}

// modulePkg declares PrimaryOutput.
const modulePkg = "repro/internal/module"

// Analyzer is the histrelease check.
var Analyzer = &lint.Analyzer{
	Name: "histrelease",
	Doc: "a function observing PrimaryOutput.History must reach ReleaseHistory/" +
		"ClearHistory on all paths (PrimaryOutput histories leak per scheduler run)",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.PathMatchesAny(pass.Pkg.Path(), TargetPackages) {
		return nil
	}
	pass.Funcs(func(decl *ast.FuncDecl) {
		checkFunc(pass, decl.Body)
	})
	return nil
}

// primaryOutputMethod reports whether call invokes the named method on
// module.PrimaryOutput.
func primaryOutputMethod(pass *lint.Pass, call *ast.CallExpr, names ...string) bool {
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	pkgPath, typeName := lint.ReceiverNamed(fn)
	if pkgPath != modulePkg || typeName != "PrimaryOutput" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	var observes, releases, returns []token.Pos
	deferredRelease := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if primaryOutputMethod(pass, n, "History") {
				observes = append(observes, n.Pos())
			}
			if primaryOutputMethod(pass, n, "ReleaseHistory", "ClearHistory") {
				releases = append(releases, n.Pos())
			}
		case *ast.DeferStmt:
			// A deferred release (direct or inside a deferred closure)
			// covers every path out of the function.
			ast.Inspect(n, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && primaryOutputMethod(pass, c, "ReleaseHistory", "ClearHistory") {
					deferredRelease = true
				}
				return true
			})
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		}
		return true
	})
	if len(observes) == 0 || deferredRelease {
		return
	}
	sort.Slice(releases, func(i, j int) bool { return releases[i] < releases[j] })
	sort.Slice(returns, func(i, j int) bool { return returns[i] < returns[j] })
	for _, obs := range observes {
		rel := firstAfter(releases, obs)
		if rel == token.NoPos {
			pass.Reportf(obs,
				"PrimaryOutput history observed but never released: call ReleaseHistory (or ClearHistory) once the run's outputs are consumed")
			continue
		}
		if ret := firstAfter(returns, obs); ret != token.NoPos && ret < rel {
			pass.Reportf(obs,
				"PrimaryOutput history may leak: return at line %d precedes the ReleaseHistory call (release on every path, or defer it)",
				pass.Fset.Position(ret).Line)
		}
	}
}

// firstAfter returns the first position in sorted ps strictly after pos,
// or NoPos.
func firstAfter(ps []token.Pos, pos token.Pos) token.Pos {
	for _, p := range ps {
		if p > pos {
			return p
		}
	}
	return token.NoPos
}
