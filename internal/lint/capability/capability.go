// Package capability enforces the paper's downloaded-part sandbox
// (PAPER.md: Java-security-manager confinement of IP parts). It is the
// whole sandbox: there is no run-time half, so the confinement holds on
// every path, not only on the ones a test executes, and a user cannot
// relax it at run time. Over the sandboxed package set (public-part
// skeletons in internal/module, the sealed-evaluation path in
// internal/sealed, and the kernel packages a downloaded behavior runs
// inside), it enforces
//
//  1. an import gate — sandboxed packages may import only each other
//     and capability-free stdlib; os, os/exec, net, syscall, unsafe,
//     reflect and friends are forbidden outright; and
//  2. a call-graph reachability check — starting from the entry points
//     a downloaded part is invoked through (exported functions and
//     methods, plus package init), any transitively reachable call into
//     a forbidden package or a wall-clock API (time.Now and the timer
//     constructors) is reported with the full call chain, so the
//     finding names how the sandboxed surface reaches the capability.
//
// Within a sandboxed package every exported declaration is an entry
// point: the provider cannot know which skeleton hooks a user design
// wires up. Unexported functions are only constrained when reachable
// from one. The forbidden-call check runs intra-package; cross-package
// escapes cannot evade it because every import either lies inside the
// sandboxed set (whose own entry points are checked the same way) or is
// rejected by the import gate.
package capability

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// SandboxPackages is the sandboxed set: code that runs on behalf of a
// downloaded part. The set is import-closed over repro packages (each
// member may import only other members), which the import gate enforces.
var SandboxPackages = []string{
	"repro/internal/module",
	"repro/internal/sealed",
	"repro/internal/gate",
	"repro/internal/signal",
	"repro/internal/estim",
	"repro/internal/sim",
	"repro/internal/wire",
}

// forbiddenPrefixes are import-path prefixes a sandboxed package may
// never depend on (prefix match, so "os" also covers os/exec and
// os/signal). They grant filesystem, process, network, or
// type-system-escape capabilities the paper's sandbox denies to
// downloaded parts. encoding/gob is reflective decoding of untrusted
// bytes; sandboxed code serializes through internal/wire.
var forbiddenPrefixes = []string{
	"os",
	"net",
	"syscall",
	"unsafe",
	"reflect",
	"plugin",
	"io/ioutil",
	"encoding/gob",
}

// wallClockFuncs are the package-level time functions that read or
// schedule against the wall clock. Pure time arithmetic (time.Duration,
// time.Time values passed in) stays legal: the sandbox forbids
// *observing* real time, not representing it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the capability check.
var Analyzer = &lint.Analyzer{
	Name: "capability",
	Doc: "statically enforce the downloaded-part sandbox: packages reachable from " +
		"public-part skeletons may not import or call os/net/exec/unsafe/reflect, " +
		"wall-clock APIs or repro packages outside the sandbox; " +
		"violations name the full call chain",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.PathMatchesAny(pass.Pkg.Path(), SandboxPackages) {
		return nil
	}
	checkImports(pass)
	checkReachability(pass)
	return nil
}

// checkImports is the import gate.
func checkImports(pass *lint.Pass) {
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case strings.HasPrefix(path, "repro/"):
				if !lint.PathMatchesAny(path, SandboxPackages) {
					pass.Reportf(spec.Pos(),
						"sandboxed package %s imports %s: downloaded-part code may only depend on other sandboxed packages",
						pass.Pkg.Path(), path)
				}
			case lint.PathMatchesAny(path, forbiddenPrefixes):
				pass.Reportf(spec.Pos(),
					"sandboxed package %s imports %s: forbidden capability for downloaded-part code (the paper's sandbox denies it the file system, the network and other processes)",
					pass.Pkg.Path(), path)
			}
		}
	}
}

// forbiddenCall is one direct call from a sandboxed function into a
// capability the sandbox denies.
type forbiddenCall struct {
	pos  token.Pos
	what string // e.g. "time.Now" or "os.Getenv"
}

// funcNode is the per-declaration call-graph node.
type funcNode struct {
	decl      *ast.FuncDecl
	callees   []*types.Func // intra-package static callees, in source order
	forbidden []forbiddenCall
}

// checkReachability builds the intra-package static call graph and walks
// it from every entry point, reporting forbidden calls with their chain.
func checkReachability(pass *lint.Pass) {
	nodes := map[*types.Func]*funcNode{}
	var order []*types.Func // deterministic iteration order (source order)
	pass.Funcs(func(fd *ast.FuncDecl) {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		node := &funcNode{decl: fd}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lint.Callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if what, bad := forbiddenCallee(callee); bad {
				node.forbidden = append(node.forbidden, forbiddenCall{pos: call.Pos(), what: what})
				return true
			}
			if lint.FuncPkgPath(callee) == pass.Pkg.Path() {
				node.callees = append(node.callees, callee)
			}
			return true
		})
		nodes[fn] = node
		order = append(order, fn)
	})
	sort.Slice(order, func(i, j int) bool {
		return nodes[order[i]].decl.Pos() < nodes[order[j]].decl.Pos()
	})

	// BFS from every entry point at once, remembering how each function
	// was first reached so findings can print a concrete chain.
	parent := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, fn := range order {
		if isEntryPoint(nodes[fn].decl) {
			parent[fn] = nil
			queue = append(queue, fn)
		}
	}
	reported := map[token.Pos]bool{}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := nodes[fn]
		for _, fc := range node.forbidden {
			if reported[fc.pos] {
				continue
			}
			reported[fc.pos] = true
			pass.Reportf(fc.pos,
				"sandboxed code reaches %s (chain: %s -> %s): downloaded parts may not touch the outside world",
				fc.what, chain(parent, fn), fc.what)
		}
		for _, callee := range node.callees {
			if _, seen := parent[callee]; seen {
				continue
			}
			if _, known := nodes[callee]; !known {
				continue // method value on an imported type, etc.
			}
			parent[callee] = fn
			queue = append(queue, callee)
		}
	}
}

// forbiddenCallee reports whether fn is a call into a forbidden package
// or a wall-clock time function, and if so, a printable name for it.
func forbiddenCallee(fn *types.Func) (string, bool) {
	pkg := lint.FuncPkgPath(fn)
	if pkg == "" {
		return "", false
	}
	if lint.PathMatchesAny(pkg, forbiddenPrefixes) {
		return pkg + "." + fn.Name(), true
	}
	if pkg == "time" && wallClockFuncs[fn.Name()] && lint.IsPkgFunc(fn, "time", fn.Name()) {
		return "time." + fn.Name(), true
	}
	return "", false
}

// isEntryPoint reports whether a declaration is a surface a downloaded
// part is invoked through: any exported function or method, or init.
func isEntryPoint(fd *ast.FuncDecl) bool {
	return fd.Name.IsExported() || fd.Name.Name == "init"
}

// chain renders the first-discovered call path from an entry point down
// to fn, e.g. "HandleEvent -> meter".
func chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, f.Name())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}
