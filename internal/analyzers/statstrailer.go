package analyzers

import (
	"go/ast"
	"go/types"

	"spider/internal/analyzers/framework"
)

// StatsTrailer enforces the ItemsRead contract restored in PR 2: every
// exported engine entry point that hands back a Stats must fill
// ItemsRead in its result trailer. FindPartialINDs and FindEmbeddedINDs
// once shipped with ItemsRead permanently zero because no counter was
// wired — the numbers regenerate the paper's Figure 5, so a silently
// zero ItemsRead is wrong output, not a cosmetic gap.
var StatsTrailer = &framework.Analyzer{
	Name: "statstrailer",
	Doc: `exported engine entry points returning Stats must assign ItemsRead

A qualifying function either assigns ItemsRead (or a whole Stats value)
somewhere in its body, or visibly delegates: it returns another
Stats-bearing call directly, or hands a Stats-bearing value to a helper
that fills the trailer.`,
	Run: runStatsTrailer,
}

func runStatsTrailer(pass *framework.Pass) error {
	if !inPackages(pass, modulePrefix, indPkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if !returnsStats(sig) {
				continue
			}
			if hasItemsReadTrailer(pass, fd.Body) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s returns Stats but never assigns ItemsRead; fill the result trailer (opts.Counter.Total()) or delegate to an engine that does — a zero ItemsRead silently corrupts the Figure 5 metric", fd.Name.Name)
		}
	}
	return nil
}

// returnsStats reports whether the signature's results include a type
// carrying an ItemsRead field, directly or via a Stats field.
func returnsStats(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if carriesItemsRead(res.At(i).Type(), true) {
			return true
		}
	}
	return false
}

// carriesItemsRead unwraps pointers and named types to a struct and
// looks for an ItemsRead field; when deep, a field named Stats is
// searched one level down (Result.Stats.ItemsRead).
func carriesItemsRead(t types.Type, deep bool) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "ItemsRead" {
			return true
		}
		if deep && (f.Name() == "Stats" || f.Embedded()) && carriesItemsRead(f.Type(), false) {
			return true
		}
	}
	return false
}

// hasItemsReadTrailer reports whether the body contains an assignment
// (or increment, or composite-literal key) of ItemsRead or of a whole
// Stats value, or a return that directly delegates to another
// Stats-bearing call.
func hasItemsReadTrailer(pass *framework.Pass, body *ast.BlockStmt) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if selEndsIn(lhs, "ItemsRead") || selEndsIn(lhs, "Stats") {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if selEndsIn(n.X, "ItemsRead") {
				found = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && (id.Name == "ItemsRead" || id.Name == "Stats") {
				found = true
			}
		case *ast.CallExpr:
			// Trailer delegation by argument: the Stats-bearing result is
			// handed to a helper that fills it, e.g.
			// `finishPartialResult(res, len(cands), opts.Counter, start)`.
			for _, arg := range n.Args {
				if carriesItemsRead(info.TypeOf(arg), true) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			// Pure delegation: returning the results of a call whose own
			// signature carries Stats, e.g. `return FindEmbeddedINDsWith(db, opts)`.
			for _, e := range n.Results {
				call, ok := ast.Unparen(e).(*ast.CallExpr)
				if !ok {
					continue
				}
				if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && returnsStats(sig) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// selEndsIn reports whether expr is a selector whose final field is
// name (res.Stats.ItemsRead, out.ItemsRead, ...).
func selEndsIn(e ast.Expr, name string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
