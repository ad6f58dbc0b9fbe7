// Package extsort provides external merge sort with duplicate elimination.
// It plays the role of the RDBMS sort in the paper's database-external
// approaches (Sec 3): the derived value sets of embedded INDs are pushed
// through a Sorter, which spills sorted deduplicated runs to disk when
// its memory budget is exceeded and k-way merges them into the final
// sorted distinct set. A column's set s(a) and the encoded tuple sets of
// n-ary discovery are sorted in memory instead and enter the same
// staging path as a Presorted sorter, with no runs.
package extsort

import (
	"container/heap"
	"fmt"
	"os"
	"sort"

	"spider/internal/store"
	"spider/internal/valfile"
)

// Config bounds the sorter's resources.
type Config struct {
	// MaxInMemory is the maximum number of values buffered before a run is
	// spilled to disk. Zero selects DefaultMaxInMemory.
	MaxInMemory int
	// TempDir receives spill runs. Empty selects os.TempDir().
	TempDir string
	// FanIn bounds how many runs one merge pass reads at once; when more
	// runs exist, intermediate merge passes combine them first. This keeps
	// the number of open files bounded — the very constraint that stops
	// the paper's single-pass algorithm at 2560 attributes (Sec 4.2).
	// Zero selects DefaultFanIn.
	FanIn int
	// Format selects the value-file encoding for spill runs. The zero
	// value is the text format; readers auto-detect, so mixed-format runs
	// merge fine.
	Format valfile.Format
}

// DefaultMaxInMemory is the spill threshold when Config.MaxInMemory is 0.
const DefaultMaxInMemory = 1 << 16

// DefaultFanIn is the merge fan-in when Config.FanIn is 0.
const DefaultFanIn = 64

// Sorter accumulates values and produces their sorted distinct set.
type Sorter struct {
	cfg    Config
	buf    []string
	runs   []string
	added  int64
	closed bool
	// presorted marks a buffer that is already sorted and distinct.
	presorted bool
}

// New returns a Sorter with the given configuration.
func New(cfg Config) *Sorter {
	if cfg.MaxInMemory <= 0 {
		cfg.MaxInMemory = DefaultMaxInMemory
	}
	if cfg.TempDir == "" {
		cfg.TempDir = os.TempDir()
	}
	if cfg.FanIn <= 1 {
		cfg.FanIn = DefaultFanIn
	}
	return &Sorter{cfg: cfg}
}

// Presorted returns a sorter that holds vals, which must be sorted and
// distinct, as its in-memory buffer, so it drains, freezes and stages
// like any sorter but never spills, merges or sorts again. added is the
// number of values vals was deduplicated from, reported as
// RunMeta.Added. The sorter takes vals and refuses Add.
func Presorted(vals []string, added int64) *Sorter {
	s := New(Config{})
	s.buf, s.added, s.presorted = vals, added, true
	return s
}

// Add buffers one value, spilling a run if the memory budget is reached.
func (s *Sorter) Add(v string) error {
	if s.closed {
		return fmt.Errorf("extsort: Add after finish")
	}
	if s.presorted {
		return fmt.Errorf("extsort: Add to a presorted sorter")
	}
	s.buf = append(s.buf, v)
	s.added++
	if len(s.buf) >= s.cfg.MaxInMemory {
		return s.spill()
	}
	return nil
}

// Added returns the number of values pushed so far (with duplicates).
func (s *Sorter) Added() int64 { return s.added }

// spill sorts and deduplicates the buffer into a new run file.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sortDedup(&s.buf)
	f, err := os.CreateTemp(s.cfg.TempDir, "extsort-run-*.val")
	if err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	path := f.Name()
	f.Close()
	if _, err := store.WriteFileValues(path, s.buf, s.cfg.Format); err != nil {
		os.Remove(path)
		return err
	}
	s.runs = append(s.runs, path)
	s.buf = s.buf[:0]
	return nil
}

// sortDedup sorts *vals and removes duplicates in place.
func sortDedup(vals *[]string) {
	v := *vals
	sort.Strings(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	*vals = out
}

// sortBuf sorts and deduplicates the in-memory buffer unless it came
// presorted.
func (s *Sorter) sortBuf() {
	if !s.presorted {
		sortDedup(&s.buf)
	}
}

// cleanup removes all spill runs.
func (s *Sorter) cleanup() {
	for _, p := range s.runs {
		os.Remove(p)
	}
	s.runs = nil
}

// Sink receives a sorted distinct value stream; store.ValueWriter and
// *valfile.Writer both satisfy it.
type Sink interface {
	Append(v string) error
}

// DrainTo merges buffered values and spill runs into sink: it appends
// every distinct value in sorted order (tapped by observe, which may be nil), removes the
// temporary runs, and returns the count, the maximum value ("" when
// empty) and the sorter's provenance for callers that persist a
// RunMetaSection. It neither sets sections nor closes the sink; the
// caller owns the staging writer. The Sorter cannot be reused.
func (s *Sorter) DrainTo(sink Sink, observe func(string)) (n int, max string, meta RunMeta, err error) {
	if s.closed {
		return 0, "", RunMeta{}, fmt.Errorf("extsort: DrainTo after finish")
	}
	s.closed = true
	defer s.cleanup()

	s.sortBuf()
	meta = RunMeta{Added: s.added, SpillRuns: len(s.runs)}

	// Intermediate merge passes keep the final fan-in bounded.
	for len(s.runs) > s.cfg.FanIn {
		if err := s.mergePass(); err != nil {
			return 0, "", RunMeta{}, err
		}
	}

	if len(s.runs) == 0 {
		// Everything fit in memory: write the buffer directly.
		for _, v := range s.buf {
			if observe != nil {
				observe(v)
			}
			if err := sink.Append(v); err != nil {
				return 0, "", RunMeta{}, err
			}
		}
		n = len(s.buf)
		if n > 0 {
			max = s.buf[n-1]
		}
		return n, max, meta, nil
	}

	merge, err := newMerger(s.runs, s.buf)
	if err != nil {
		return 0, "", RunMeta{}, err
	}
	defer merge.close()
	for {
		v, ok, err := merge.nextDistinct()
		if err != nil {
			return 0, "", RunMeta{}, err
		}
		if !ok {
			break
		}
		if observe != nil {
			observe(v)
		}
		if err := sink.Append(v); err != nil {
			return 0, "", RunMeta{}, err
		}
		n++
	}
	return n, merge.lastOut, meta, nil
}

// mergePass merges the first FanIn runs into one new run, shrinking
// len(s.runs) by FanIn-1 per call.
func (s *Sorter) mergePass() error {
	k := s.cfg.FanIn
	if k > len(s.runs) {
		k = len(s.runs)
	}
	batch := s.runs[:k]
	merge, err := newMerger(batch, nil)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.cfg.TempDir, "extsort-run-*.val")
	if err != nil {
		merge.close()
		return fmt.Errorf("extsort: %w", err)
	}
	outPath := f.Name()
	f.Close()
	w, err := store.CreateFile(outPath, s.cfg.Format)
	if err != nil {
		merge.close()
		return err
	}
	for {
		v, ok, err := merge.nextDistinct()
		if err != nil {
			merge.close()
			w.Close()
			return err
		}
		if !ok {
			break
		}
		if err := w.Append(v); err != nil {
			merge.close()
			w.Close()
			return err
		}
	}
	merge.close()
	if err := w.Close(); err != nil {
		return err
	}
	for _, p := range batch {
		os.Remove(p)
	}
	s.runs = append(s.runs[k:], outPath)
	return nil
}

// Discard finishes the sorter without producing output, removing any
// spill runs. It is safe to call on an already finished sorter.
func (s *Sorter) Discard() {
	s.closed = true
	s.buf = nil
	s.cleanup()
}

// MergeCursor streams a frozen sorter's sorted distinct value set
// directly from its spill runs and in-memory tail, without materializing
// the merged file. It satisfies the same Next/Err/Close contract as a
// valfile.Reader, so the IND engines can consume spill runs in place.
type MergeCursor struct {
	m       *merger
	counter *valfile.ReadCounter
	err     error
	done    bool
	closed  bool
}

// Next returns the next distinct value in sorted order.
func (c *MergeCursor) Next() (string, bool) {
	if c.err != nil || c.done || c.closed {
		return "", false
	}
	v, ok, err := c.m.nextDistinct()
	if err != nil {
		c.err = err
		return "", false
	}
	if !ok {
		c.done = true
		return "", false
	}
	c.counter.Add(1)
	return v, true
}

// Err returns the first error encountered, if any.
func (c *MergeCursor) Err() error { return c.err }

// Close releases the run readers, flushing the bytes they read into the
// cursor's counter. The spill runs stay with their Runs handle.
func (c *MergeCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.counter.AddBytes(c.m.bytesRead())
	c.m.close()
	return nil
}

// Runs is a finished sorter's frozen output: its spill runs plus the
// sorted in-memory tail. A Runs handle can be opened any number of
// times, concurrently included. Close removes the spill runs; it must
// not be called before every opened cursor is closed.
type Runs struct {
	runs   []string
	mem    []string
	closed bool
}

// Freeze finishes the sorter into a Runs handle, running intermediate
// merge passes so any later open stays within the fan-in bound. The
// Sorter cannot be reused.
func (s *Sorter) Freeze() (*Runs, error) {
	if s.closed {
		return nil, fmt.Errorf("extsort: Freeze after finish")
	}
	s.closed = true
	s.sortBuf()
	for len(s.runs) > s.cfg.FanIn {
		if err := s.mergePass(); err != nil {
			s.cleanup()
			return nil, err
		}
	}
	r := &Runs{runs: s.runs, mem: s.buf}
	s.runs, s.buf = nil, nil // ownership moves to the handle
	return r, nil
}

// Open returns a fresh merge cursor over the frozen runs. It is safe to
// call concurrently; every cursor opens its own readers. counter may be
// nil.
func (r *Runs) Open(counter *valfile.ReadCounter) (*MergeCursor, error) {
	if r.closed {
		return nil, fmt.Errorf("extsort: Open after Close")
	}
	m, err := newMerger(r.runs, r.mem)
	if err != nil {
		return nil, err
	}
	return &MergeCursor{m: m, counter: counter}, nil
}

// Close removes the spill runs. Safe to call more than once.
func (r *Runs) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	for _, p := range r.runs {
		os.Remove(p)
	}
	r.runs, r.mem = nil, nil
	return nil
}

// merger k-way merges sorted run files plus one in-memory sorted slice.
type merger struct {
	readers []*valfile.Reader
	mem     []string
	memPos  int
	h       mergeHeap
	// lastOut/haveOut track nextDistinct's cross-run deduplication.
	lastOut string
	haveOut bool
}

type mergeItem struct {
	val string
	src int // reader index, or -1 for the in-memory slice
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].val < h[j].val }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// newMerger k-way merges the runs and mem.
func newMerger(runs []string, mem []string) (*merger, error) {
	m := &merger{mem: mem}
	for _, p := range runs {
		r, err := store.OpenFile(p, nil)
		if err != nil {
			m.close()
			return nil, err
		}
		m.readers = append(m.readers, r)
	}
	for i, r := range m.readers {
		if v, ok := r.Next(); ok {
			m.h = append(m.h, mergeItem{val: v, src: i})
		} else if err := r.Err(); err != nil {
			m.close()
			return nil, err
		}
	}
	if len(mem) > 0 {
		m.h = append(m.h, mergeItem{val: mem[0], src: -1})
		m.memPos = 1
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *merger) next() (string, bool, error) {
	if m.h.Len() == 0 {
		return "", false, nil
	}
	it := m.h[0]
	if it.src == -1 {
		if m.memPos < len(m.mem) {
			m.h[0] = mergeItem{val: m.mem[m.memPos], src: -1}
			m.memPos++
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
		return it.val, true, nil
	}
	r := m.readers[it.src]
	if v, ok := r.Next(); ok {
		m.h[0] = mergeItem{val: v, src: it.src}
		heap.Fix(&m.h, 0)
	} else {
		if err := r.Err(); err != nil {
			return "", false, err
		}
		heap.Pop(&m.h)
	}
	return it.val, true, nil
}

// nextDistinct is next with duplicate elimination across runs: equal
// values from different runs (or the in-memory slice) collapse to one.
func (m *merger) nextDistinct() (string, bool, error) {
	for {
		v, ok, err := m.next()
		if err != nil || !ok {
			return "", false, err
		}
		if m.haveOut && v == m.lastOut {
			continue
		}
		m.lastOut, m.haveOut = v, true
		return v, true, nil
	}
}

// bytesRead sums the raw bytes the merger's run readers have consumed.
func (m *merger) bytesRead() int64 {
	var n int64
	for _, r := range m.readers {
		if r != nil {
			n += r.BytesRead()
		}
	}
	return n
}

func (m *merger) close() {
	for _, r := range m.readers {
		if r != nil {
			r.Close()
		}
	}
}
