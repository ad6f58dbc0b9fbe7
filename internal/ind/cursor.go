package ind

import (
	"fmt"

	"spider/internal/extsort"
	"spider/internal/store"
	"spider/internal/valfile"
)

// Cursor streams one attribute's sorted distinct value set, the
// fundamental access path of every order-based algorithm (Sec 3: "All
// value sets are extracted from the database and stored in sorted
// files"). Decoupling the algorithms from the storage of those sets lets
// the same engines run over any store.Dataset backend — value files,
// in-memory sets, read-only snapshots — or values merged straight out of
// external-sort spill runs.
//
// Next returns the next value in strictly increasing order; ok is false
// at end of stream or on error, distinguished by Err. Close releases any
// underlying resources and must be called exactly once.
type Cursor = store.Cursor

// *extsort.MergeCursor streams directly from spill runs.
var _ Cursor = (*extsort.MergeCursor)(nil)

// CursorSource opens value cursors for attributes. The order-based
// engines consume their input exclusively through a source, so the same
// algorithm runs unchanged over files, memory, or streaming merges.
type CursorSource interface {
	Open(a *Attribute) (Cursor, error)
}

// RangeSource is a CursorSource that can additionally open cursors
// restricted to a canonical value range — the access path of the sharded
// merge engine, whose shards each stream one disjoint slice of the value
// space. OpenRange must be safe for concurrent use and must allow the
// same attribute to be opened once per shard.
type RangeSource interface {
	CursorSource
	OpenRange(a *Attribute, bounds valfile.Range) (Cursor, error)
}

// BoundarySampler is optionally implemented by sources that can produce
// cheap order statistics of an attribute's value set (e.g. spill-run
// fronts or a dataset's samples); the sharded engine folds them into its
// boundary selection.
type BoundarySampler interface {
	SampleBounds(a *Attribute, k int) ([]string, error)
}

// StoreSource serves attributes out of a store.Dataset — the uniform
// access path under every engine since the storage seam: filesystem
// datasets, in-memory datasets and read-only snapshots all arrive here.
// Every delivered item is counted by Counter (may be nil).
type StoreSource struct {
	DS      store.Dataset
	Counter *valfile.ReadCounter
}

// Open returns an unbounded cursor over the attribute's value set.
func (s StoreSource) Open(a *Attribute) (Cursor, error) {
	return s.OpenRange(a, valfile.Range{})
}

// OpenRange returns a cursor over the attribute's value set bounded to
// bounds.
func (s StoreSource) OpenRange(a *Attribute, bounds valfile.Range) (Cursor, error) {
	key := a.StoreKey()
	if key == "" {
		return nil, fmt.Errorf("ind: attribute %s has no exported value set", a.Ref)
	}
	return s.DS.OpenRange(key, s.Counter, bounds)
}

// SampleBounds returns the dataset's order statistics for the
// attribute, feeding the sharded engine's boundary selection.
func (s StoreSource) SampleBounds(a *Attribute, k int) ([]string, error) {
	key := a.StoreKey()
	if key == "" {
		return nil, fmt.Errorf("ind: attribute %s has no exported value set", a.Ref)
	}
	return s.DS.Sample(key, k)
}

// pathFS resolves attribute paths as verbatim file paths — the dataset
// behind the historical files-on-disk default.
var pathFS = store.NewFS("", valfile.FormatText)

// FileSource opens the sorted value files written by ExportAttributes,
// resolving Attribute.Path verbatim through an unrooted filesystem
// dataset. Every delivered item is counted by Counter (may be nil).
type FileSource struct {
	Counter *valfile.ReadCounter
}

// Open opens the attribute's exported value file.
func (s FileSource) Open(a *Attribute) (Cursor, error) {
	return s.OpenRange(a, valfile.Range{})
}

// OpenRange opens the attribute's exported value file bounded to bounds.
func (s FileSource) OpenRange(a *Attribute, bounds valfile.Range) (Cursor, error) {
	if a.Path == "" {
		return nil, fmt.Errorf("ind: attribute %s has no exported value file", a.Ref)
	}
	return pathFS.OpenRange(a.Path, s.Counter, bounds)
}

// SorterSource streams each attribute's sorted distinct values directly
// out of its external sorter — spill runs plus the in-memory tail —
// without materializing final value files. Each attribute can be opened
// exactly once, which suits the single-read SpiderMerge engine; reopening
// fails.
type SorterSource struct {
	sorters map[int]*extsort.Sorter
	counter *valfile.ReadCounter
}

// NewSorterSource returns an empty source; counter may be nil.
func NewSorterSource(counter *valfile.ReadCounter) *SorterSource {
	return &SorterSource{sorters: make(map[int]*extsort.Sorter), counter: counter}
}

// Add registers the sorter holding a's values. The source takes ownership.
func (s *SorterSource) Add(a *Attribute, sorter *extsort.Sorter) {
	s.sorters[a.ID] = sorter
}

// Open consumes the attribute's sorter into a streaming merge cursor.
func (s *SorterSource) Open(a *Attribute) (Cursor, error) {
	sorter, ok := s.sorters[a.ID]
	if !ok {
		return nil, fmt.Errorf("ind: attribute %s has no pending sorter (already opened?)", a.Ref)
	}
	delete(s.sorters, a.ID)
	return sorter.Cursor(s.counter)
}

// Close discards any sorters that were never opened.
func (s *SorterSource) Close() error {
	for id, sorter := range s.sorters {
		sorter.Discard()
		delete(s.sorters, id)
	}
	return nil
}

// RunsSource serves attributes from frozen external-sort runs
// (extsort.Runs). Unlike SorterSource, every attribute can be opened any
// number of times — concurrently, each cursor optionally bounded to a
// value range — so it backs both the plain streaming path and the
// sharded engine's per-shard replay. Close removes all spill runs.
type RunsSource struct {
	runs    map[int]*extsort.Runs
	counter *valfile.ReadCounter
}

// NewRunsSource returns an empty source; counter may be nil.
func NewRunsSource(counter *valfile.ReadCounter) *RunsSource {
	return &RunsSource{runs: make(map[int]*extsort.Runs), counter: counter}
}

// Add registers the frozen runs holding a's values. The source takes
// ownership; Close releases them.
func (s *RunsSource) Add(a *Attribute, runs *extsort.Runs) {
	s.runs[a.ID] = runs
}

// Open returns an unbounded cursor over the attribute's runs.
func (s *RunsSource) Open(a *Attribute) (Cursor, error) {
	return s.OpenRange(a, valfile.Range{})
}

// OpenRange returns a cursor over the attribute's runs bounded to bounds.
func (s *RunsSource) OpenRange(a *Attribute, bounds valfile.Range) (Cursor, error) {
	runs, ok := s.runs[a.ID]
	if !ok {
		return nil, fmt.Errorf("ind: attribute %s has no frozen runs", a.Ref)
	}
	return runs.OpenRange(bounds, s.counter)
}

// SampleBounds returns spill-run fronts and in-memory-tail samples of the
// attribute, feeding the sharded engine's boundary selection.
func (s *RunsSource) SampleBounds(a *Attribute, k int) ([]string, error) {
	runs, ok := s.runs[a.ID]
	if !ok {
		return nil, fmt.Errorf("ind: attribute %s has no frozen runs", a.Ref)
	}
	return runs.Sample(k)
}

// Close removes every attribute's spill runs.
func (s *RunsSource) Close() error {
	for id, runs := range s.runs {
		runs.Close()
		delete(s.runs, id)
	}
	return nil
}

// sourceOrStore is the engine-side default: an explicit source wins,
// then an explicit dataset (wrapped in a counted StoreSource), otherwise
// the exported value files are read and counted.
func sourceOrStore(src CursorSource, ds store.Dataset, counter *valfile.ReadCounter) CursorSource {
	if src != nil {
		return src
	}
	if ds != nil {
		return StoreSource{DS: ds, Counter: counter}
	}
	return FileSource{Counter: counter}
}
