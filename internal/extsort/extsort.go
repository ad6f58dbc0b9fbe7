// Package extsort is what is left of the external merge sort that
// played the RDBMS sort of the paper's database-external approaches
// (Sec 3). Every sorted set of the system is now sorted and compacted
// in memory by its producer (relstore's column pass, the n-ary tuple
// sets, the embedded engine's derived sets), because every entry point
// takes an in-memory database: no value set can be larger than data
// that is already resident, so spill runs guarded against a case that
// cannot occur.
//
// Nothing in the main module calls this Sorter. It stays only until the
// benchmark module (perfbench) stops timing it and stops setting the
// Config-typed option fields (ROADMAP item 1); the package is deleted
// right after.
package extsort

import (
	"fmt"
	"slices"

	"spider/internal/valfile"
)

// Config is kept for the option fields that still carry one. Only
// Format is read, and only by the n-ary engine, for its value files;
// the Sorter reads neither field.
type Config struct {
	TempDir string
	Format  valfile.Format
}

// Sorter accumulates values in memory and produces their sorted
// distinct set.
type Sorter struct {
	buf    []string
	closed bool
}

// New returns an empty Sorter; cfg is not read.
func New(cfg Config) *Sorter { return &Sorter{} }

// Add buffers one value.
func (s *Sorter) Add(v string) error {
	if s.closed {
		return fmt.Errorf("extsort: Add after finish")
	}
	s.buf = append(s.buf, v)
	return nil
}

// Sink receives a sorted distinct value stream; store.ValueWriter
// satisfies it.
type Sink interface {
	Append(v string) error
}

// DrainTo sorts and compacts the buffered values and appends each
// distinct value to sink in order, tapping observe (may be nil). It
// returns the distinct count, the maximum ("" when empty) and the
// provenance a RunMetaSection records. The Sorter cannot be reused.
func (s *Sorter) DrainTo(sink Sink, observe func(string)) (n int, max string, meta valfile.RunMeta, err error) {
	if s.closed {
		return 0, "", valfile.RunMeta{}, fmt.Errorf("extsort: DrainTo after finish")
	}
	vals := s.buf
	s.Discard()
	meta.Added = int64(len(vals))
	slices.Sort(vals)
	vals = slices.Compact(vals)
	for _, v := range vals {
		if observe != nil {
			observe(v)
		}
		if err := sink.Append(v); err != nil {
			return 0, "", valfile.RunMeta{}, err
		}
	}
	if len(vals) > 0 {
		max = vals[len(vals)-1]
	}
	return len(vals), max, meta, nil
}

// Discard finishes the sorter without producing output. It is safe to
// call on an already finished sorter.
func (s *Sorter) Discard() {
	s.closed = true
	s.buf = nil
}
