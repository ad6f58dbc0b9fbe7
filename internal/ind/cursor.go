package ind

import (
	"fmt"

	"spider/internal/store"
	"spider/internal/valfile"
)

// Cursor streams one attribute's sorted distinct value set, the
// fundamental access path of every order-based algorithm (Sec 3: "All
// value sets are extracted from the database and stored in sorted
// files"). Decoupling the algorithms from the storage of those sets lets
// the same engines run over any store.Dataset backend — value files,
// in-memory sets or read-only snapshots.
//
// Next returns the next value in strictly increasing order; ok is false
// at end of stream or on error, distinguished by Err. Close releases any
// underlying resources and must be called exactly once.
type Cursor = store.Cursor

// pathFS resolves attribute paths as verbatim file paths — the dataset
// the engines read when their Store option is nil, i.e. the value files
// ExportAttributes wrote under a filesystem dataset.
var pathFS = store.NewFS("", valfile.FormatText)

// source opens attributes' value cursors out of one dataset, counting
// every delivered item into counter (may be nil). It is the one access
// path of every order-based engine: value files, in-memory sets and
// read-only snapshots all arrive through it.
type source struct {
	ds      store.Dataset
	counter *valfile.ReadCounter
}

// newSource resolves an engine's Store option; nil reads the exported
// value files by path.
func newSource(ds store.Dataset, counter *valfile.ReadCounter) source {
	if ds == nil {
		ds = pathFS
	}
	return source{ds: ds, counter: counter}
}

// Open returns a cursor over the attribute's value set.
func (s source) Open(a *Attribute) (Cursor, error) {
	key, err := exportedKey(a)
	if err != nil {
		return nil, err
	}
	return s.ds.Open(key, s.counter)
}

// exportedKey returns the attribute's dataset key, failing loudly for
// attributes that were never exported.
func exportedKey(a *Attribute) (string, error) {
	key := a.StoreKey()
	if key == "" {
		return "", fmt.Errorf("ind: attribute %s has no exported value set", a.Ref)
	}
	return key, nil
}
