// Package simdeterminism forbids the three nondeterminism sources that
// would silently break gocad's replay guarantees in kernel code:
//
//  1. time.Now — PR 1's wire-order session replay and the paper's
//     bit-identical virtual simulation require runs to be pure functions
//     of their inputs; wall-clock reads leak real time into results.
//  2. The global math/rand source — unseeded (or globally re-seeded)
//     randomness differs between runs and between concurrently running
//     schedulers. All randomness must flow through an explicitly seeded
//     *rand.Rand the caller passes in.
//  3. Map iteration feeding an ordered accumulator — Go randomizes map
//     range order per run, so appending to a result slice from inside a
//     map range makes output order (and everything downstream, e.g.
//     PR 2's index-ordered merges) differ run to run.
//
// The check applies to non-test code under internal/sim, internal/fault,
// internal/core and internal/replica (circuit breakers must read time
// through their injected Clock, never the wall clock directly — the
// chaos harness's determinism depends on it). Wall-clock metering that
// never feeds simulation results (scenario timing columns) is suppressed
// case by case with
// //lint:ignore simdeterminism directives carrying the justification.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// TargetPackages is the import-path scope of the check (prefix match).
var TargetPackages = []string{
	"repro/internal/sim",
	"repro/internal/fault",
	"repro/internal/core",
	"repro/internal/replica",
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators — the sanctioned way to be random.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer is the simdeterminism check.
var Analyzer = &lint.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid time.Now, the global math/rand source, and map-range iteration " +
		"feeding ordered results in simulation kernel packages (replay and " +
		"worker-count determinism)",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.PathMatchesAny(pass.Pkg.Path(), TargetPackages) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags time.Now and global math/rand source calls.
func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	pkg := lint.FuncPkgPath(fn)
	switch pkg {
	case "time":
		if lint.IsPkgFunc(fn, "time", "Now") {
			pass.Reportf(call.Pos(),
				"time.Now in simulation kernel code: runs must be pure functions of their inputs")
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil { // *rand.Rand methods are fine
			return
		}
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s source in simulation kernel code: route randomness through an explicitly seeded *rand.Rand passed by the caller", pkg, fn.Name())
	}
}

// checkMapRange flags `for ... range m` over a map whose body appends to
// an accumulator declared outside the loop: the append order then
// depends on Go's randomized map iteration.
func checkMapRange(pass *lint.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if accumulatorEscapesLoop(pass, call.Args[0], rng) {
			pass.Reportf(call.Pos(),
				"append to an accumulator declared outside this map range: result order depends on randomized map iteration; iterate a sorted key slice instead")
		}
		return true
	})
}

// accumulatorEscapesLoop reports whether the append destination lives
// outside the range statement (an outer local, a field, an element of an
// outer container).
func accumulatorEscapesLoop(pass *lint.Pass, dst ast.Expr, rng *ast.RangeStmt) bool {
	switch dst := ast.Unparen(dst).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[dst]
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		// Fields and container elements outlive the loop by construction.
		return true
	}
	return false
}
