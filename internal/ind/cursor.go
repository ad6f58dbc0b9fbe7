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

// source opens attributes' value cursors out of one dataset, counting
// every delivered item into counter (may be nil). It is the one access
// path of every order-based engine: value files, in-memory sets and
// read-only snapshots all arrive through it.
type source struct {
	ds      store.Dataset
	counter *valfile.ReadCounter
}

// newSource wraps an engine's Store option, which is required.
func newSource(ds store.Dataset, counter *valfile.ReadCounter) (source, error) {
	if err := requireDataset(ds, "Store"); err != nil {
		return source{}, err
	}
	return source{ds: ds, counter: counter}, nil
}

// requireDataset fails when the dataset an option names is nil: every
// value set goes into and comes out of an explicit dataset.
func requireDataset(ds store.Dataset, option string) error {
	if ds == nil {
		return fmt.Errorf("ind: %s: no dataset given", option)
	}
	return nil
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
	key := a.Key
	if key == "" {
		return "", fmt.Errorf("ind: attribute %s has no exported value set", a.Ref)
	}
	return key, nil
}
