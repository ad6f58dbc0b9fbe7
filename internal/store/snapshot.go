package store

import (
	"slices"

	"spider/internal/valfile"
)

// Snapshot is a read-only view of one Mem: every read goes straight to
// the Mem's committed slices, so each value set is held once however
// many views and cursors share it. A committed slice is never written
// again (a later Create replaces it whole), which is what makes it safe
// to hand to any number of concurrent cursors — the indserved
// precondition: immutable shared state, per-request cursors with no
// per-request I/O.
//
// A key committed, replaced or removed in the Mem is what the next
// Open sees; an open cursor keeps the slice it started on. Create and
// Remove fail with ErrReadOnly.
type Snapshot struct {
	m *Mem
}

// NewSnapshot returns a read-only view of m.
func NewSnapshot(m *Mem) *Snapshot { return &Snapshot{m: m} }

// Open returns a cursor over key's committed values.
func (s *Snapshot) Open(key string, counter *valfile.ReadCounter) (Cursor, error) {
	return s.m.Open(key, counter)
}

// Contains reports whether v is in key's value set: one binary search
// over the Mem's committed sorted slice.
func (s *Snapshot) Contains(key, v string) (bool, error) {
	vals, err := s.m.values(key)
	if err != nil {
		return false, err
	}
	_, found := slices.BinarySearch(vals, v)
	return found, nil
}

// Create fails: snapshots are read-only.
func (s *Snapshot) Create(string) (ValueWriter, error) { return nil, ErrReadOnly }

// Remove fails: snapshots are read-only.
func (s *Snapshot) Remove(string) error { return ErrReadOnly }

// Section returns key's named section from the Mem.
func (s *Snapshot) Section(key, tag string) ([]byte, bool, error) {
	return s.m.Section(key, tag)
}

// CacheStats describes what the viewed Mem holds: how many keys are
// resident, how many values they hold in total, and how many sections
// ride along. The serving layer surfaces these through its metrics
// endpoint.
type CacheStats struct {
	Keys     int
	Values   int64
	Sections int
}

// CacheStats returns the viewed Mem's current occupancy.
func (s *Snapshot) CacheStats() CacheStats {
	m := s.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := CacheStats{Keys: len(m.vals)}
	for _, vals := range m.vals {
		st.Values += int64(len(vals))
	}
	for _, secs := range m.sections {
		st.Sections += len(secs)
	}
	return st
}
