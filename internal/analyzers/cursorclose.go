package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"spider/internal/analyzers/framework"
)

// CursorClose enforces the resource invariant behind every engine:
// a Cursor, valfile.Reader/Writer, blockfile.Reader/Writer or
// extsort.MergeCursor/Runs/Sorter/Spill obtained in a function must be
// released on every path — closed (or discarded) before each return, or
// handed off to an owner (returned, stored in a field/map, passed to
// another function). In a batch run a leaked cursor is a failed test; in
// the planned long-lived indserved daemon it is fd exhaustion in
// production.
//
// The analysis is intra-procedural and document-ordered: a release
// counts for a return only if it appears earlier in the source, which is
// exactly the semantics of `defer x.Close()` placed immediately after
// acquisition — and precisely what catches the recurring
// unclosed-on-error-path bug class:
//
//	a, err := src.Open(x)
//	if err != nil { return err }
//	b, err := src.Open(y)
//	if err != nil { return err } // a leaks here unless a defer intervened
var CursorClose = &framework.Analyzer{
	Name: "cursorclose",
	Doc: `cursors and spill-run handles must be closed on all paths

Module types with a Close or Discard method (ind.Cursor, valfile.Reader,
blockfile.Reader, blockfile.Writer, extsort.Runs, ...) obtained from a
call must be released before every
subsequent return, or escape to a returned/stored owner. Assigning one
to the blank identifier is flagged outright.`,
	Run: runCursorClose,
}

// releaseMethods end a tracked resource's lifetime.
var releaseMethods = map[string]bool{"Close": true, "Discard": true}

func runCursorClose(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analyzeCloseScope(pass, n.Body)
				}
			case *ast.FuncLit:
				analyzeCloseScope(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// closeable reports whether t is a module-declared type carrying a
// Close or Discard release method.
func closeable(t types.Type) bool {
	if t == nil || moduleNamed(t) == nil {
		return false
	}
	if hasCloseMethod(t) {
		return true
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Discard")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0
}

// acquisition is one tracked resource: a closeable obtained from a call
// and bound to a local variable. guards are the sibling results of the
// same assignment (the err/ok companions): a return inside an if whose
// condition tests a guard — before the guard is reassigned — is the
// acquisition's own failure check, where the resource is nil.
type acquisition struct {
	obj      types.Object
	pos      token.Pos
	stmtPos  token.Pos
	name     string
	guards   []types.Object
	releases []token.Pos
	escaped  bool
}

// returnSite is one return statement plus the objects referenced by the
// conditions of its enclosing if statements.
type returnSite struct {
	pos    token.Pos
	guards map[types.Object]bool
}

func analyzeCloseScope(pass *framework.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Phase 1: find acquisitions and all assignment positions, skipping
	// nested function literals (they are scopes of their own).
	var acqs []*acquisition
	tracked := make(map[types.Object]*acquisition)
	assignPos := make(map[types.Object][]token.Pos)
	var findAcqs func(n ast.Node) bool
	findAcqs = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			recordAssigns(info, n.Pos(), n.Lhs, assignPos)
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					recordAcquisitions(pass, n.Pos(), n.Lhs, call, tracked, &acqs)
				}
			}
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			recordAssigns(info, n.Pos(), lhs, assignPos)
			if len(n.Values) == 1 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok {
					recordAcquisitions(pass, n.Pos(), lhs, call, tracked, &acqs)
				}
			}
		}
		return true
	}
	ast.Inspect(body, findAcqs)
	if len(acqs) == 0 {
		return
	}

	returns := collectReturns(info, body)

	// Phase 2: classify every use of each tracked object, anywhere in
	// the scope including nested closures.
	scanUses(info, body, tracked)

	// Phase 3: report. Order: per acquisition, leak-on-return paths in
	// source order, then never-closed.
	for _, a := range acqs {
		if a.escaped {
			continue
		}
		if len(a.releases) == 0 {
			pass.Reportf(a.pos, "%s is never closed in this function and never escapes to an owner; close it on all paths (cursorclose invariant)", a.name)
			continue
		}
		for _, ret := range returns {
			if ret.pos <= a.pos {
				continue
			}
			released := false
			for _, rel := range a.releases {
				if rel < ret.pos {
					released = true
					break
				}
			}
			if released || isOwnNilGuard(a, ret, assignPos) {
				continue
			}
			pass.Reportf(ret.pos, "%s may not be closed on this return path (acquired at %s); defer %s.Close() immediately after acquiring it", a.name, pass.Fset.Position(a.pos), a.name)
		}
	}
}

// isOwnNilGuard reports whether ret is the acquisition's own failure
// check: it sits under an if condition testing one of the acquisition's
// guard siblings (err, ok) and that guard has not been reassigned since.
// On that path the resource is nil — there is nothing to close. Once the
// guard IS reassigned (the next open reusing err), the same shape is the
// classic unclosed-on-error-path leak and stays flagged.
func isOwnNilGuard(a *acquisition, ret returnSite, assignPos map[types.Object][]token.Pos) bool {
	for _, g := range a.guards {
		if !ret.guards[g] {
			continue
		}
		reassigned := false
		for _, p := range assignPos[g] {
			if p > a.stmtPos && p < ret.pos {
				reassigned = true
				break
			}
		}
		if !reassigned {
			return true
		}
	}
	return false
}

// recordAssigns notes the statement position against every plain
// identifier assigned in lhs.
func recordAssigns(info *types.Info, pos token.Pos, lhs []ast.Expr, assignPos map[types.Object][]token.Pos) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			assignPos[obj] = append(assignPos[obj], pos)
		}
	}
}

// collectReturns gathers the scope's return statements with the objects
// their enclosing if conditions reference, skipping nested literals.
func collectReturns(info *types.Info, body ast.Node) []returnSite {
	var returns []returnSite
	var guardStack []types.Object
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			g := make(map[types.Object]bool, len(guardStack))
			for _, o := range guardStack {
				g[o] = true
			}
			returns = append(returns, returnSite{pos: n.Pos(), guards: g})
			return
		case *ast.IfStmt:
			walk(n.Init)
			before := len(guardStack)
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						guardStack = append(guardStack, obj)
					}
				}
				return true
			})
			walk(n.Body)
			walk(n.Else)
			guardStack = guardStack[:before]
			return
		}
		for _, c := range childNodes(n) {
			walk(c)
		}
	}
	walk(body)
	return returns
}

// recordAcquisitions inspects one call-assignment and tracks closeable
// results bound to plain identifiers; a closeable bound to the blank
// identifier is reported immediately. Sibling non-closeable results
// (err, ok) become the acquisition's guards.
func recordAcquisitions(pass *framework.Pass, stmtPos token.Pos, lhs []ast.Expr, call *ast.CallExpr, tracked map[types.Object]*acquisition, acqs *[]*acquisition) {
	info := pass.TypesInfo
	resultType := func(i int) types.Type {
		t := info.TypeOf(call)
		if tup, ok := t.(*types.Tuple); ok {
			if i < tup.Len() {
				return tup.At(i).Type()
			}
			return nil
		}
		if i == 0 {
			return t
		}
		return nil
	}
	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	var guards []types.Object
	for i, l := range lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" && !closeable(resultType(i)) {
			if obj := objOf(id); obj != nil {
				guards = append(guards, obj)
			}
		}
	}
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue // assigned into a field/index: that owner closes it
		}
		t := resultType(i)
		if !closeable(t) {
			continue
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(), "closeable %s result discarded with _; it can never be closed", typeName(t))
			continue
		}
		obj := objOf(id)
		if obj == nil || tracked[obj] != nil {
			continue
		}
		a := &acquisition{obj: obj, pos: id.Pos(), stmtPos: stmtPos, name: id.Name, guards: guards}
		tracked[obj] = a
		*acqs = append(*acqs, a)
	}
}

// scanUses walks the scope maintaining defer/closure context and
// classifies each use of a tracked object as a release, an escape, or
// neutral.
func scanUses(info *types.Info, body ast.Node, tracked map[types.Object]*acquisition) {
	var stack []ast.Node
	var deferPos []token.Pos // enclosing DeferStmt positions
	closureDepth := 0

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferPos = append(deferPos, n.Pos())
			stack = append(stack, n)
			walk(n.Call)
			stack = stack[:len(stack)-1]
			deferPos = deferPos[:len(deferPos)-1]
			return
		case *ast.FuncLit:
			if n != body {
				closureDepth++
				stack = append(stack, n)
				walk(n.Body)
				stack = stack[:len(stack)-1]
				closureDepth--
				return
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				obj = info.Defs[n]
			}
			if a := tracked[obj]; a != nil {
				classifyUse(n, stack, a, deferPos, closureDepth)
			}
			return
		}
		stack = append(stack, n)
		for _, child := range childNodes(n) {
			walk(child)
		}
		stack = stack[:len(stack)-1]
	}
	walk(body)
}

// classifyUse updates the acquisition for one identifier use given its
// ancestor stack.
func classifyUse(id *ast.Ident, stack []ast.Node, a *acquisition, deferPos []token.Pos, closureDepth int) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]

	// Release: x.Close() / x.Discard(), possibly wrapped in a defer
	// (directly or via `defer func() { x.Close() }()`).
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == sel && releaseMethods[sel.Sel.Name] {
				pos := id.Pos()
				if len(deferPos) > 0 {
					pos = deferPos[0]
				}
				a.releases = append(a.releases, pos)
				return
			}
		}
		return // other method call or field access: neutral
	}

	// Any other use inside a non-defer closure hands the resource to
	// code with its own lifetime.
	if closureDepth > 0 && len(deferPos) == 0 {
		a.escaped = true
		return
	}

	switch p := parent.(type) {
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == id {
				a.escaped = true // ownership handed to the callee
			}
		}
	case *ast.ReturnStmt:
		a.escaped = true // the caller owns it now
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if r == id {
				a.escaped = true // aliased or stored; the alias owns it
			}
		}
	case *ast.SendStmt:
		if p.Value == id {
			a.escaped = true
		}
	case *ast.CompositeLit, *ast.KeyValueExpr:
		a.escaped = true
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			a.escaped = true
		}
	case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt, *ast.TypeAssertExpr,
		*ast.IndexExpr, *ast.RangeStmt, *ast.CaseClause, *ast.ParenExpr,
		*ast.ExprStmt, *ast.IncDecStmt, *ast.TypeSwitchStmt:
		// neutral: comparison, condition, assertion, indexing
	default:
		a.escaped = true // unknown context: assume an owner appeared
	}
}

// childNodes lists n's immediate children in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
