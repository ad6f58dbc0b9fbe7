package analyzers

import (
	"go/ast"
	"strings"

	"spider/internal/analyzers/framework"
)

// OnePool enforces that relstore.Parallel is the only worker pool: no
// other code under spider/internal/ starts a goroutine. Parallel bounds
// its width by GOMAXPROCS, stops handing out work at the first error
// and returns only after every worker has exited, so a goroutine it
// starts can neither outlive the call nor block on a receiver that gave
// up. A `go` statement anywhere else is a second pool that has to earn
// those guarantees by hand — the class of leak the deleted speculative
// n-ary extractions had. Test files and cmd/ are out of scope.
var OnePool = &framework.Analyzer{
	Name: "onepool",
	Doc: `go statements under internal/ belong to relstore.Parallel

Every concurrent step (CSV parse, column pass, export, sketch build,
n-ary level staging) runs on relstore.Parallel, the one pool that bounds
its width and waits for every worker; a go statement elsewhere under
spider/internal/ starts a second pool.`,
	Run: runOnePool,
}

// poolPkg and poolFunc name the one function that may start goroutines.
const (
	poolPkg  = modulePrefix + "/internal/relstore"
	poolFunc = "Parallel"
)

func runOnePool(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, modulePrefix+"/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == poolFunc && path == poolPkg {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement outside relstore.Parallel; run concurrent work on the one pool, which bounds its width and waits for every worker")
				}
				return true
			})
		}
	}
	return nil
}
