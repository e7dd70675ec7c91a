// Package lint is gocad's in-tree static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// model (Analyzer, Pass, Diagnostic) over the standard library's go/ast
// and go/types, plus a package loader built on `go list -export` so
// analyzers see fully type-checked packages without vendoring x/tools.
//
// The analyzers under internal/lint/* machine-enforce the kernel
// invariants the paper's guarantees rest on — bit-identical replay,
// worker-count determinism, the capability sandbox, and RMI latency/error
// discipline — so they survive refactors instead of
// living in comments. cmd/gocad-lint is the multichecker binary CI runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports findings; it must be deterministic (diagnostics are
// sorted by position, so report order does not matter).
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `gocad-lint -help`.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position fully resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col: message (analyzer) form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Callee resolves the static callee of a call expression, or nil for
// calls through function values, builtins, and type conversions. For
// method calls (including interface methods) it returns the method; for
// package-level functions, the function.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// FuncPkgPath returns the import path of the package declaring fn, or ""
// (builtins, error.Error, and other universe-scope functions).
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsPkgFunc reports whether fn is the package-level function
// pkgPath.name (not a method).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || FuncPkgPath(fn) != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ReceiverNamed returns the defining package path and type name of a
// method's receiver (dereferencing one pointer), or ("", "") when fn is
// not a method on a named type.
func ReceiverNamed(fn *types.Func) (pkgPath, typeName string) {
	if fn == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return "", ""
	}
	if named.Obj().Pkg() != nil {
		pkgPath = named.Obj().Pkg().Path()
	}
	return pkgPath, named.Obj().Name()
}

// ReturnsError reports whether fn's last result is the built-in error
// type.
func ReturnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// HasPathPrefix reports whether path is prefix itself or a package
// below it ("a/b" matches "a/b" and "a/b/c", never "a/bc").
func HasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// PathMatchesAny reports whether path is under any of the prefixes.
func PathMatchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if HasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// Funcs visits every function and method declaration with a body in the
// pass's files.
func (p *Pass) Funcs(visit func(decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
