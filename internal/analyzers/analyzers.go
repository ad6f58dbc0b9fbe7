// Package analyzers is indlint: a suite of repo-specific static
// analyzers that mechanically enforce the merge-engine invariants this
// codebase has already been burned by. Every correctness sweep in PRs
// 2–6 fixed an instance of one of these classes by hand; the analyzers
// move those invariants from CHANGES.md tribal knowledge into the build:
//
//   - cursorclose: cursors, dataset writers and value-file readers must
//     be closed on every path or escape to a returned owner.
//   - tupleencode: multi-value keys in internal/ind must use the
//     injective escaped tuple encoding, never raw concatenation,
//     strings.Join, or hand-rolled \x00-separated Sprintf keys.
//   - statstrailer: every exported engine entry point returning Stats
//     must fill ItemsRead before returning.
//   - onepool: no code under internal/ starts a goroutine outside
//     relstore.Parallel, the one bounded, waited-for worker pool.
//   - storeseam: value streams flow through store.Dataset (or the store
//     package's blessed pass-throughs); direct valfile open/create/read
//     calls outside internal/store bypass the storage backends.
//
// False positives are suppressed only with a justified
// //lint:indlint-ignore <reason> directive (see framework.ApplyIgnores);
// a reasonless directive suppresses nothing and is itself reported.
//
// The suite is built into cmd/indlint, which runs standalone
// (`go run ./cmd/indlint ./...`) or as a vet tool
// (`go vet -vettool=<path-to-indlint> ./...`).
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"spider/internal/analyzers/framework"
)

// All returns the full suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		CursorClose,
		TupleEncode,
		StatsTrailer,
		OnePool,
		StoreSeam,
	}
}

// indPkg is the package whose encodings and trailers the narrow
// analyzers gate on.
const indPkg = "spider/internal/ind"

// modulePrefix identifies this repo's packages in fully qualified type
// names; fixtures mirror the prefix so analyzer tests see the same
// paths.
const modulePrefix = "spider"

// inPackages reports whether the pass's package is one of paths.
func inPackages(pass *framework.Pass, paths ...string) bool {
	p := pass.Pkg.Path()
	for _, want := range paths {
		if p == want {
			return true
		}
	}
	return false
}

// typeName returns the fully qualified string of t, e.g.
// "*spider/internal/valfile.ReadCounter".
func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	return types.TypeString(t, nil)
}

// isPkgCall reports whether call is a direct call of pkgPath.funcName
// (e.g. strings.Join), resolved through the type info so aliased or
// shadowed imports do not fool it.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// moduleNamed unwraps pointers and reports the named type t resolves to
// when it is declared inside this module, else nil.
func moduleNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return nil
	}
	path := n.Obj().Pkg().Path()
	if path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/") {
		return n
	}
	return nil
}

// hasCloseMethod reports whether t's method set contains Close() error.
func hasCloseMethod(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0
}
