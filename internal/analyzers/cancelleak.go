package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"spider/internal/analyzers/framework"
)

// CancelLeak enforces the goroutine discipline in internal/ind, the
// extraction and merge layer: a goroutine that sends on a channel blocks
// forever if its receiver has already given up — exactly how the
// speculative n-ary extractions leaked goroutines and spill files until
// they were cancelled; both the speculation and its cancel channel have
// since been deleted, and the rule guards any worker added later. Every
// send inside a `go func` must have a way out:
//
//   - the send sits in a select with a receive case (done/cancel) or a
//     default (nonblocking), or
//   - the channel is provably buffered — created in the same function
//     with make(chan T, n>0) — so the send completes without a receiver.
var CancelLeak = &framework.Analyzer{
	Name: "cancelleak",
	Doc: `goroutine channel sends need a cancellation path

In internal/ind, a naked send inside a launched
goroutine must select on a done/cancel channel, be nonblocking, or
target a provably buffered channel; otherwise an abandoned receiver
leaks the goroutine (and whatever spill files it holds).`,
	Run: runCancelLeak,
}

func runCancelLeak(pass *framework.Pass) error {
	if !inPackages(pass, indPkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // `go method(...)`: body not visible here
				}
				checkGoroutineBody(pass, fd, lit)
				return true
			})
		}
	}
	return nil
}

// checkGoroutineBody flags unguarded sends in one goroutine body.
// Nested `go` statements are separate goroutines and skipped here (the
// outer Inspect visits them on its own).
func checkGoroutineBody(pass *framework.Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit) {
	var inSelect func(n ast.Node, guarded bool) // guarded: a select provides an exit
	inSelect = func(n ast.Node, guarded bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.GoStmt:
				return false
			case *ast.FuncLit:
				if c != lit {
					return false // runs on another goroutine or is deferred cleanup
				}
			case *ast.SelectStmt:
				ok := selectHasExit(c)
				for _, clause := range c.Body.List {
					cc := clause.(*ast.CommClause)
					if cc.Comm != nil {
						inSelect(cc.Comm, ok)
					}
					for _, stmt := range cc.Body {
						inSelect(stmt, guarded)
					}
				}
				return false
			case *ast.SendStmt:
				if !guarded && !provablyBuffered(pass, enclosing, lit, c.Chan) {
					pass.Reportf(c.Pos(), "goroutine sends on %s with no cancellation path; select on a done/cancel channel alongside the send (or use a buffered channel sized to the senders) so an abandoned receiver cannot leak this goroutine (PR 6 leak class)", chanName(c.Chan))
				}
				return true
			}
			return true
		})
	}
	inSelect(lit.Body, false)
}

// selectHasExit reports whether the select can complete without any of
// its sends succeeding: a receive case or a default clause.
func selectHasExit(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		cc := clause.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default: nonblocking
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = comm
			return true // <-ch receive case
		}
	}
	return false
}

// provablyBuffered reports whether ch resolves to a variable created in
// the enclosing function (or the goroutine itself) by make(chan T, n)
// with nonzero capacity. A non-constant capacity counts as buffered —
// pools size their result channels by worker count.
func provablyBuffered(pass *framework.Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit, ch ast.Expr) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false // field or index: allocation site unknown
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	buffered := false
	for _, scope := range []ast.Node{enclosing.Body, lit.Body} {
		ast.Inspect(scope, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				def := pass.TypesInfo.Defs[lid]
				if def == nil {
					def = pass.TypesInfo.Uses[lid]
				}
				if def != obj {
					continue
				}
				if call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr); ok && isMakeChan(pass.TypesInfo, call) && len(call.Args) == 2 {
					if v := pass.TypesInfo.Types[call.Args[1]].Value; v != nil {
						if n, ok := constant.Int64Val(v); ok && n > 0 {
							buffered = true
						}
					} else {
						buffered = true // runtime-sized: assume sized to senders
					}
				}
			}
			return true
		})
	}
	return buffered
}

func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "make" {
		return false
	}
	_, isChan := info.TypeOf(call).Underlying().(*types.Chan)
	return isChan
}

func chanName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return chanName(e.X) + "." + e.Sel.Name
	default:
		return "channel"
	}
}
