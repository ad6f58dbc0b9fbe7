package analyzers

import (
	"go/ast"

	"spider/internal/analyzers/framework"
)

// StoreSeam enforces the storage-seam boundary introduced with
// internal/store: the Dataset abstraction owns every sorted-distinct
// value stream, so nothing outside the store package (and blockfile
// itself) may open or create a value file directly. A stray
// blockfile.Open compiles fine and works on the fs backend — then
// silently bypasses the mem and snapshot backends, read counting, and
// the error that tells a text export to be converted. Code that
// legitimately works on bare value files routes through the blessed
// pass-throughs (store.OpenFile, store.CreateFile, store.FileSection).
var StoreSeam = &framework.Analyzer{
	Name: "storeseam",
	Doc: `forbid direct blockfile open/create calls outside internal/store

Every value stream flows through a store.Dataset (or the store package's
path-level pass-throughs); a direct blockfile call re-opens the seam the
storage backends abstract away and silently skips the mem and snapshot
backends.`,
	Run: runStoreSeam,
}

// blockfilePkg is the package whose entry points the seam gates.
const blockfilePkg = modulePrefix + "/internal/blockfile"

// storeSeamAllowed are the packages that legitimately touch value
// files: the seam itself and the encoding it wraps.
var storeSeamAllowed = []string{
	modulePrefix + "/internal/store",
	blockfilePkg,
}

// storeSeamBlessed maps each gated blockfile stream entry point to the
// store pass-through that replaces it. Format plumbing (HasMagic) stays
// callable everywhere: it inspects bytes without opening a stream.
var storeSeamBlessed = map[string]string{
	"Open":   "OpenFile or FileSection",
	"Create": "CreateFile",
}

func runStoreSeam(pass *framework.Pass) error {
	if inPackages(pass, storeSeamAllowed...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for name, blessed := range storeSeamBlessed {
				if isPkgCall(pass.TypesInfo, call, blockfilePkg, name) {
					pass.Reportf(call.Pos(), "direct blockfile.%s call outside internal/store; open value streams through a store.Dataset or the store.%s pass-through so the mem and snapshot backends stay in play", name, blessed)
					return true
				}
			}
			return true
		})
	}
	return nil
}
