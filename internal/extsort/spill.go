package extsort

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"spider/internal/store"
	"spider/internal/valfile"
)

// Spill is the read-only store.Dataset over frozen external-sort runs.
// Each key's sorted distinct value set stays where the sorter left it —
// spill runs plus the sorted in-memory tail (a Runs handle) — instead
// of being merged into a final value file. Cursors, range opens and
// samples come from the Runs handle, so any engine, sharded or not,
// replays a key as often as it needs. Sections stay in memory, as in
// store.Mem.
//
// Keys are staged with Stage; Create returns store.ErrReadOnly. A
// Spill serves one discovery call: Remove drops one key's runs early,
// and Close removes every spill run that is left.
type Spill struct {
	mu   sync.RWMutex
	sets map[string]*spillSet
}

// spillSet is one staged key: its frozen runs and its sections.
type spillSet struct {
	runs     *Runs
	sections map[string][]byte
}

var _ store.Dataset = (*Spill)(nil)

// NewSpill returns an empty spill dataset.
func NewSpill() *Spill {
	return &Spill{sets: make(map[string]*spillSet)}
}

// Stage freezes sorter into the dataset under key. Freezing replays the
// frozen runs once, tapping observe (may be nil) with every distinct
// value in sorted order, so Stage reports what DrainTo reports: the
// maximum value ("" when empty) and the sorter's provenance. The
// returned writer commits the key: SetSection attaches sections, Len is
// the distinct count, Close makes the key readable (replacing any
// earlier set under key), and Append is refused because the values are
// already staged. On error the sorter's runs are removed. The Sorter
// cannot be reused.
func (s *Spill) Stage(key string, sorter *Sorter, observe func(string)) (store.ValueWriter, string, RunMeta, error) {
	meta := RunMeta{Added: sorter.added, SpillRuns: len(sorter.runs)}
	runs, err := sorter.Freeze()
	if err != nil {
		return nil, "", RunMeta{}, err
	}
	n, max, err := runs.scan(observe)
	if err != nil {
		runs.Close()
		return nil, "", RunMeta{}, err
	}
	return &spillWriter{s: s, key: key, set: &spillSet{runs: runs}, n: n}, max, meta, nil
}

// scan replays the runs once, returning the distinct count and maximum.
func (r *Runs) scan(observe func(string)) (n int, max string, err error) {
	c, err := r.OpenRange(valfile.Range{}, nil)
	if err != nil {
		return 0, "", err
	}
	defer c.Close()
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		if observe != nil {
			observe(v)
		}
		n, max = n+1, v
	}
	return n, max, c.Err()
}

// Keys enumerates the staged keys, sorted.
func (s *Spill) Keys() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.sets))
	for k := range s.sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *Spill) get(key string) (*spillSet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, ok := s.sets[key]
	if !ok {
		return nil, fmt.Errorf("extsort: no spilled value set for key %q", key)
	}
	return set, nil
}

// Open returns an unbounded merge cursor over key's runs.
func (s *Spill) Open(key string, counter *valfile.ReadCounter) (store.Cursor, error) {
	return s.OpenRange(key, counter, valfile.Range{})
}

// OpenRange returns a merge cursor over key's runs bounded to bounds;
// each call opens its own run readers.
func (s *Spill) OpenRange(key string, counter *valfile.ReadCounter, bounds valfile.Range) (store.Cursor, error) {
	set, err := s.get(key)
	if err != nil {
		return nil, err
	}
	c, err := set.runs.OpenRange(bounds, counter)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Create is refused: spill keys are staged from sorters with Stage.
func (s *Spill) Create(key string) (store.ValueWriter, error) {
	return nil, fmt.Errorf("extsort: spill key %q is staged with Spill.Stage: %w", key, store.ErrReadOnly)
}

// Remove drops key and removes its spill runs.
func (s *Spill) Remove(key string) error {
	s.mu.Lock()
	set, ok := s.sets[key]
	delete(s.sets, key)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("extsort: no spilled value set for key %q", key)
	}
	return set.runs.Close()
}

// Section returns key's named section payload.
func (s *Spill) Section(key, tag string) ([]byte, bool, error) {
	set, err := s.get(key)
	if err != nil {
		return nil, false, err
	}
	data, ok := set.sections[tag]
	return data, ok, nil
}

// Sample returns up to max ascending values of key's set, drawn from
// the spill runs' block indexes (or first values) and the in-memory
// tail, evenly thinned when there are more.
func (s *Spill) Sample(key string, max int) ([]string, error) {
	set, err := s.get(key)
	if err != nil || max <= 0 {
		return nil, err
	}
	vals, err := set.runs.Sample(max)
	if err != nil {
		return nil, err
	}
	sort.Strings(vals)
	vals = slices.Compact(vals)
	if len(vals) <= max {
		return vals, nil
	}
	out := make([]string, max)
	for i := range out {
		out[i] = vals[i*len(vals)/max]
	}
	return out, nil
}

// Close removes every staged key's spill runs. Safe to call more than
// once.
func (s *Spill) Close() error {
	s.mu.Lock()
	sets := s.sets
	s.sets = make(map[string]*spillSet)
	s.mu.Unlock()
	for _, set := range sets {
		set.runs.Close()
	}
	return nil
}

// spillWriter commits one staged key at Close.
type spillWriter struct {
	s      *Spill
	key    string
	set    *spillSet
	n      int
	closed bool
}

func (w *spillWriter) Append(string) error {
	return fmt.Errorf("extsort: spill key %q was staged by Spill.Stage: %w", w.key, store.ErrReadOnly)
}

func (w *spillWriter) SetSection(tag string, data []byte) error {
	if w.set.sections == nil {
		w.set.sections = make(map[string][]byte)
	}
	w.set.sections[tag] = append([]byte(nil), data...)
	return nil
}

func (w *spillWriter) Len() int { return w.n }

func (w *spillWriter) Close() error {
	if w.closed {
		return fmt.Errorf("extsort: spill writer for key %q closed twice", w.key)
	}
	w.closed = true
	w.s.mu.Lock()
	old := w.s.sets[w.key]
	w.s.sets[w.key] = w.set
	w.s.mu.Unlock()
	if old != nil {
		old.runs.Close()
	}
	return nil
}
