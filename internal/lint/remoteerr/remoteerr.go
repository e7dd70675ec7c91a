// Package remoteerr forbids silently discarding the error result of a
// remote-surface call. Errors from internal/rmi, internal/iplib,
// internal/provider and internal/estim are not incidental: they carry
// ErrProviderDead, the signal the whole graceful-degradation design
// (PR 1) pivots on — an estimator that never sees the error never
// degrades, and the run hangs on a dead provider or silently produces
// partial results with no degradation record.
//
// A call discards its error when it stands alone as an expression
// statement. Deferred calls (defer c.Close()) and goroutine launches are
// exempt — their results are unusable by construction — and assigning
// the error to blank (`_ = c.Close()`) is accepted as an explicit,
// greppable acknowledgment. A call into the caller's own package is
// exempt as that package's plumbing; the remote packages are checked
// like any other caller for the calls they make into one another.
package remoteerr

import (
	"go/ast"

	"repro/internal/lint"
)

// remotePackages are the error sources whose failures drive degradation.
// The gateway belongs here for the same reason as the transport: a
// discarded AddTenant or Drain error means a tenant silently not
// registered or a shutdown that lost billing records.
var remotePackages = []string{
	"repro/internal/rmi",
	"repro/internal/iplib",
	"repro/internal/provider",
	"repro/internal/estim",
	"repro/internal/gateway",
}

// Analyzer is the remote-err check.
var Analyzer = &lint.Analyzer{
	Name: "remote-err",
	Doc: "errors from RMI, estimator and provider calls must not be discarded: " +
		"ErrProviderDead drives graceful degradation",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.TypesInfo, call)
			if fn == nil || !lint.ReturnsError(fn) {
				return true
			}
			// A package's calls into itself are its own plumbing; a call
			// across packages, even from one remote package into
			// another, is a remote failure the caller must handle.
			callee := lint.FuncPkgPath(fn)
			if callee == pass.Pkg.Path() || !lint.PathMatchesAny(callee, remotePackages) {
				return true
			}
			pass.Reportf(call.Pos(),
				"error from %s discarded: remote failures (ErrProviderDead) drive graceful degradation and must be handled (or explicitly acknowledged with _ =)",
				label(fn))
			return true
		})
	}
	return nil
}

func label(fn interface {
	Name() string
}) string {
	if f, ok := fn.(interface{ FullName() string }); ok {
		return f.FullName()
	}
	return fn.Name()
}
