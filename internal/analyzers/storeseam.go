package analyzers

import (
	"go/ast"

	"spider/internal/analyzers/framework"
)

// StoreSeam enforces the storage-seam boundary introduced with
// internal/store: the Dataset abstraction owns every sorted-distinct
// value stream, so nothing outside the store package (and valfile
// itself) may open, create or bulk-read a value file directly. A stray
// valfile.Open compiles fine and works on the fs backend — then
// silently bypasses the mem and snapshot backends, read counting, and
// the sidecar/section bookkeeping the Dataset contract centralises.
// Code that legitimately works on bare value files routes through the
// blessed pass-throughs (store.OpenFile, store.CreateFile, ...).
var StoreSeam = &framework.Analyzer{
	Name: "storeseam",
	Doc: `forbid direct valfile open/create/read calls outside internal/store

Every value stream flows through a store.Dataset (or the store package's
path-level pass-throughs); a direct valfile call re-opens the seam the
storage backends abstract away and silently skips the mem and snapshot
backends.`,
	Run: runStoreSeam,
}

// valfilePkg is the package whose entry points the seam gates.
const valfilePkg = modulePrefix + "/internal/valfile"

// storeSeamAllowed are the packages that legitimately touch value
// files: the seam itself and the encoding layer it wraps.
var storeSeamAllowed = []string{
	modulePrefix + "/internal/store",
	valfilePkg,
}

// storeSeamForbidden are the valfile entry points that read or write
// value streams. Format plumbing (ParseFormat, DetectFormat) stays
// callable everywhere: it inspects encodings without opening a stream.
var storeSeamForbidden = []string{
	"Open",
	"Create",
	"CreateFormat",
	"WriteAll",
	"WriteAllFormat",
	"ReadAll",
	"ReadSection",
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
			for _, name := range storeSeamForbidden {
				if isPkgCall(pass.TypesInfo, call, valfilePkg, name) {
					pass.Reportf(call.Pos(), "direct valfile.%s call outside internal/store; open value streams through a store.Dataset or the store.%s pass-through so the mem and snapshot backends stay in play", name, storeSeamBlessed(name))
					return true
				}
			}
			return true
		})
	}
	return nil
}

// storeSeamBlessed names the pass-through that replaces a forbidden
// valfile entry point in the diagnostic.
func storeSeamBlessed(name string) string {
	switch name {
	case "Open":
		return "OpenFile"
	case "Create", "CreateFormat", "WriteAll", "WriteAllFormat":
		return "CreateFile"
	case "ReadAll":
		return "ReadFileValues"
	case "ReadSection":
		return "FileSection"
	}
	return "*File*"
}
