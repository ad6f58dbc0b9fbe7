package store

import (
	"slices"
	"sync"

	"spider/internal/valfile"
)

// Snapshot wraps any backend as a read-only dataset that pools reads:
// the first cursor opened on a key pulls the key's values through the
// base backend once and caches them; every later cursor — including
// concurrent ones — is served from that single immutable copy. This is
// the sharing model a long-lived server needs (many requests, one
// loaded dataset) and the indserved daemon's precondition: immutable
// shared state, per-request cursors with no per-request I/O.
//
// Keys written to the base after the snapshot was taken are visible
// (they fault into the cache on first open); keys already cached never
// change. Create and Remove fail with ErrReadOnly.
type Snapshot struct {
	base Dataset

	mu       sync.RWMutex
	vals     map[string][]string
	sections map[string]map[string][]byte // nil payload = cached absence
}

// NewSnapshot returns a read-only pooled view of base.
func NewSnapshot(base Dataset) *Snapshot {
	return &Snapshot{
		base:     base,
		vals:     make(map[string][]string),
		sections: make(map[string]map[string][]byte),
	}
}

// values returns the cached value slice for key, loading it through
// the base dataset on first use. Concurrent first opens of the same
// key serialize on the write lock; later opens share the read lock.
func (s *Snapshot) values(key string) ([]string, error) {
	s.mu.RLock()
	vals, ok := s.vals[key]
	s.mu.RUnlock()
	if ok {
		return vals, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if vals, ok := s.vals[key]; ok {
		return vals, nil
	}
	cur, err := s.base.Open(key, nil)
	if err != nil {
		return nil, err
	}
	var loaded []string
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		loaded = append(loaded, v)
	}
	if err := cur.Err(); err != nil {
		cur.Close()
		return nil, err
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	s.vals[key] = loaded
	return loaded, nil
}

// Open returns a pooled cursor over key. Any number of cursors,
// concurrent included, share one cached copy.
func (s *Snapshot) Open(key string, counter *valfile.ReadCounter) (Cursor, error) {
	vals, err := s.values(key)
	if err != nil {
		return nil, err
	}
	return NewSliceCursor(vals, counter), nil
}

// Contains reports whether v is in key's value set: one binary search
// over the pooled sorted copy, faulting the key in on first use.
func (s *Snapshot) Contains(key, v string) (bool, error) {
	vals, err := s.values(key)
	if err != nil {
		return false, err
	}
	_, found := slices.BinarySearch(vals, v)
	return found, nil
}

// Create fails: snapshots are immutable.
func (s *Snapshot) Create(string) (ValueWriter, error) { return nil, ErrReadOnly }

// Remove fails: snapshots are immutable.
func (s *Snapshot) Remove(string) error { return ErrReadOnly }

// Section returns key's named section, memoized per key (absence
// included, so a missing sidecar is probed once, not per reader).
func (s *Snapshot) Section(key, tag string) ([]byte, bool, error) {
	s.mu.RLock()
	secs, ok := s.sections[key]
	if ok {
		data, ok := secs[tag]
		s.mu.RUnlock()
		if ok {
			return data, data != nil, nil
		}
	} else {
		s.mu.RUnlock()
	}
	data, found, err := s.base.Section(key, tag)
	if err != nil {
		return nil, false, err
	}
	if !found {
		data = nil
	}
	s.mu.Lock()
	if s.sections[key] == nil {
		s.sections[key] = make(map[string][]byte)
	}
	s.sections[key][tag] = data
	s.mu.Unlock()
	return data, found, nil
}

// Len returns the cardinality of key's value set, loading it into the
// pooled cache on first use — the cheap per-key stat access a serving
// layer needs (after the first touch it is a map lookup plus a len).
func (s *Snapshot) Len(key string) (int, error) {
	vals, err := s.values(key)
	if err != nil {
		return 0, err
	}
	return len(vals), nil
}

// Cached reports whether key's value set is already pooled, without
// faulting it in.
func (s *Snapshot) Cached(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.vals[key]
	return ok
}

// Warm faults the given keys into the pooled cache so that no request
// ever pays the first-open load — the daemon's startup preload. It
// stops at the first failing key.
func (s *Snapshot) Warm(keys []string) error {
	for _, k := range keys {
		if _, err := s.values(k); err != nil {
			return err
		}
	}
	return nil
}

// CacheStats describes the pooled read cache: how many keys are
// resident, how many values they hold in total, and how many section
// lookups (absences included) are memoized. The serving layer surfaces
// these through its metrics endpoint.
type CacheStats struct {
	Keys     int
	Values   int64
	Sections int
}

// CacheStats returns the current pooled-cache occupancy.
func (s *Snapshot) CacheStats() CacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := CacheStats{Keys: len(s.vals)}
	for _, vals := range s.vals {
		st.Values += int64(len(vals))
	}
	for _, secs := range s.sections {
		st.Sections += len(secs)
	}
	return st
}
