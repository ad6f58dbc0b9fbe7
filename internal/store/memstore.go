package store

import (
	"fmt"
	"sync"

	"spider/internal/valfile"
)

// Mem is the in-memory backend: sorted distinct value slices and
// section payloads held in maps under one RWMutex. It replaces the
// ad-hoc in-memory sources that used to be scattered through tests and
// the ind package. Reads are concurrent; a staged key becomes visible
// atomically when its writer is closed.
type Mem struct {
	mu       sync.RWMutex
	vals     map[string][]string
	sections map[string]map[string][]byte
}

// NewMem returns an empty in-memory dataset.
func NewMem() *Mem {
	return &Mem{
		vals:     make(map[string][]string),
		sections: make(map[string]map[string][]byte),
	}
}

// SetValues stores sorted (which must be strictly increasing) under
// key, replacing any previous value set. It is the test-fixture
// shortcut for Create/Append/Close.
func (m *Mem) SetValues(key string, sorted []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals[key] = append([]string(nil), sorted...)
}

func (m *Mem) get(key string) ([]string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	vals, ok := m.vals[key]
	return vals, ok
}

// Open returns a cursor over key's sorted values. Delivered items
// count 1 each and their byte length (plus a newline, mirroring the
// text encoding) toward counter.
func (m *Mem) Open(key string, counter *valfile.ReadCounter) (Cursor, error) {
	vals, ok := m.get(key)
	if !ok {
		return nil, fmt.Errorf("store: no in-memory value set for key %q", key)
	}
	return NewSliceCursor(vals, counter), nil
}

// Create stages a new value set for key, committed at Close.
func (m *Mem) Create(key string) (ValueWriter, error) {
	return &memWriter{m: m, key: key}, nil
}

// Remove deletes key's values and sections.
func (m *Mem) Remove(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[key]; !ok {
		return fmt.Errorf("store: no in-memory value set for key %q", key)
	}
	delete(m.vals, key)
	delete(m.sections, key)
	return nil
}

// Section returns key's named section payload.
func (m *Mem) Section(key, tag string) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.vals[key]; !ok {
		return nil, false, fmt.Errorf("store: no in-memory value set for key %q", key)
	}
	data, ok := m.sections[key][tag]
	return data, ok, nil
}

// memWriter stages values and sections, enforcing the sorted-distinct
// invariant, and commits atomically at Close.
type memWriter struct {
	m        *Mem
	key      string
	vals     []string
	sections map[string][]byte
	closed   bool
}

func (w *memWriter) Append(v string) error {
	if n := len(w.vals); n > 0 && w.vals[n-1] >= v {
		return fmt.Errorf("store: unsorted or duplicate value %q after %q for key %q", v, w.vals[n-1], w.key)
	}
	w.vals = append(w.vals, v)
	return nil
}

func (w *memWriter) SetSection(tag string, data []byte) error {
	if w.sections == nil {
		w.sections = make(map[string][]byte)
	}
	w.sections[tag] = append([]byte(nil), data...)
	return nil
}

func (w *memWriter) Len() int { return len(w.vals) }

func (w *memWriter) Close() error {
	if w.closed {
		return fmt.Errorf("store: writer for key %q closed twice", w.key)
	}
	w.closed = true
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	w.m.vals[w.key] = w.vals
	if len(w.sections) > 0 {
		w.m.sections[w.key] = w.sections
	} else {
		delete(w.m.sections, w.key)
	}
	return nil
}

// SliceCursor iterates an in-memory sorted distinct slice, counting
// delivered items and their encoded byte length into counter.
type SliceCursor struct {
	vals    []string
	pos     int
	counter *valfile.ReadCounter
}

// NewSliceCursor returns a cursor over sorted, which must already be
// sorted and duplicate-free. counter may be nil.
func NewSliceCursor(sorted []string, counter *valfile.ReadCounter) *SliceCursor {
	return &SliceCursor{vals: sorted, counter: counter}
}

// Next returns the next value.
func (c *SliceCursor) Next() (string, bool) {
	if c.pos >= len(c.vals) {
		return "", false
	}
	v := c.vals[c.pos]
	c.pos++
	c.counter.Add(1)
	c.counter.AddBytes(int64(len(v)) + 1)
	return v, true
}

// Err always returns nil: slices cannot fail.
func (c *SliceCursor) Err() error { return nil }

// Close is a no-op.
func (c *SliceCursor) Close() error { return nil }
