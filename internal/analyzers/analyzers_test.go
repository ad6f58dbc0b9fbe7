package analyzers_test

import (
	"testing"

	"spider/internal/analyzers"
	"spider/internal/analyzers/framework/analysistest"
)

func TestCursorClose(t *testing.T) {
	analysistest.Run(t, "testdata/cursorclose", analyzers.CursorClose, "cursortest")
}

func TestTupleEncode(t *testing.T) {
	analysistest.Run(t, "testdata/tupleencode", analyzers.TupleEncode,
		"spider/internal/ind", "other")
}

func TestStatsTrailer(t *testing.T) {
	analysistest.Run(t, "testdata/statstrailer", analyzers.StatsTrailer,
		"spider/internal/ind")
}

func TestOnePool(t *testing.T) {
	analysistest.Run(t, "testdata/onepool", analyzers.OnePool,
		"spider/internal/relstore", "spider/internal/ind", "spider/cmd/tool")
}

func TestStoreSeam(t *testing.T) {
	analysistest.Run(t, "testdata/storeseam", analyzers.StoreSeam,
		"spider/internal/ind", "spider/internal/store")
}

// TestIgnoreDirective runs a live analyzer over a fixture whose
// violations are suppressed by both directive placement forms; the
// undirected control case must still be reported.
func TestIgnoreDirective(t *testing.T) {
	analysistest.Run(t, "testdata/ignore", analyzers.TupleEncode,
		"spider/internal/ind")
}
