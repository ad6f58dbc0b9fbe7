package ind

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// This file is the one merge kernel behind SpiderMerge and
// PartialSpiderMerge: the paper's one-pass test (Sec 3.3 — every value
// set is read at most once on one shared merge front) and its partial-IND
// extension (Sec 7) are the same algorithm. Every candidate carries
// matched/missing counts and is refuted as soon as its misses exceed the
// dependent's budget: |s(a)| − ⌈σ·|s(a)|⌉ in partial mode, 0 in exact
// mode, where the first miss refutes.

// SpiderMergeOptions tunes SpiderMerge and PartialSpiderMerge.
type SpiderMergeOptions struct {
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; it is required. A run
	// opens each attribute once.
	Store store.Dataset
}

// SpiderMerge tests every candidate in one pass over all attribute
// cursors using a k-way min-heap merge — the production fast path the
// paper's Sec 3.3 result points at. The event-driven single pass achieves
// the I/O optimum but loses wall clock to its subject–observer
// synchronisation (Stats.Events); SpiderMerge achieves the same "read
// every value set at most once" property with no event machinery at all.
//
// The invariant is set-theoretic: for every value v at the merge front,
// the group A of attributes whose streams contain v is known. For each
// dependent attribute d ∈ A, a candidate d ⊆ r survives only if r ∈ A.
// When d's stream ends, the surviving candidates are exactly the
// satisfied INDs. Cursors close early once an attribute is needed by no
// undecided candidate, so ItemsRead is at most the single-pass total.
func SpiderMerge(cands []Candidate, opts SpiderMergeOptions) (*Result, error) {
	start := time.Now()
	t, err := runMerge(cands, 0, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: t.stats}
	for _, row := range t.rows {
		if !row.dropped {
			res.Satisfied = append(res.Satisfied, IND{Dep: t.attrs[row.dep].Ref, Ref: t.attrs[row.ref].Ref})
		}
	}
	res.Stats.Candidates = len(cands)
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res, nil
}

// PartialSpiderMerge tests every candidate for partial inclusion at
// threshold sigma in one pass over all attribute cursors. For every value
// at the merge front, each dependent attribute in the merge group scores
// each of its undecided candidates: matched if the referenced attribute's
// stream also contains the value, missing otherwise. A candidate is
// refuted as soon as its misses exceed the budget |s(a)| − ⌈σ·|s(a)|⌉;
// the survivors' final counts yield coverages identical to
// BruteForcePartial's. Thresholds outside (0, 1] are rejected.
func PartialSpiderMerge(cands []Candidate, sigma float64, opts SpiderMergeOptions) (*PartialResult, error) {
	if err := checkPartialThreshold(sigma); err != nil {
		return nil, err
	}
	start := time.Now()
	t, err := runMerge(cands, sigma, opts)
	if err != nil {
		return nil, err
	}
	res := &PartialResult{Stats: t.stats}
	for i := range t.rows {
		row := &t.rows[i]
		if m, ok := partialVerdict(row, sigma, t.attrs[row.dep], t.attrs[row.ref]); ok {
			res.Satisfied = append(res.Satisfied, m)
		}
	}
	finishPartialResult(res, len(cands), opts.Counter, start)
	return res, nil
}

// checkPartialThreshold rejects thresholds outside (0, 1].
func checkPartialThreshold(sigma float64) error {
	if sigma <= 0 || sigma > 1 {
		return fmt.Errorf("ind: partial threshold must be in (0, 1], got %v", sigma)
	}
	return nil
}

// partialVerdict decides one candidate from its accumulated counts,
// mirroring BruteForcePartial's checks exactly so the two engines return
// byte-identical results: an empty dependent set is trivially included,
// an exhausted miss budget refutes, and survivors satisfy iff their
// measured coverage reaches the threshold.
func partialVerdict(row *mergeRow, sigma float64, dep, ref *Attribute) (PartialMatch, bool) {
	if row.dropped {
		return PartialMatch{}, false
	}
	ind := IND{Dep: dep.Ref, Ref: ref.Ref}
	total := row.matched + row.missing
	if total == 0 {
		return PartialMatch{IND: ind, Coverage: 1}, true
	}
	coverage := float64(row.matched) / float64(total)
	if coverage+1e-12 >= sigma {
		return PartialMatch{IND: ind, Coverage: coverage, Missing: row.missing}, true
	}
	return PartialMatch{}, false
}

// finishPartialResult fills the shared result trailer: stats totals and
// the deterministic (dep, ref) output order BruteForcePartial uses.
func finishPartialResult(res *PartialResult, candidates int, counter *valfile.ReadCounter, start time.Time) {
	res.Stats.Candidates = candidates
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(counter)
	res.Stats.BytesRead = totalBytes(counter)
	res.Stats.Duration = time.Since(start)
	sort.Slice(res.Satisfied, func(i, j int) bool {
		if res.Satisfied[i].Dep != res.Satisfied[j].Dep {
			return res.Satisfied[i].Dep.String() < res.Satisfied[j].Dep.String()
		}
		return res.Satisfied[i].Ref.String() < res.Satisfied[j].Ref.String()
	})
}

// mergeTable is one run's candidate table: the involved attributes in ID
// order — an attribute's index is its slot — and one row per distinct
// (dep, ref) candidate, sorted by slots so each dependent's rows are
// contiguous.
type mergeTable struct {
	attrs []*Attribute
	rows  []mergeRow
	stats Stats
}

// mergeRow is one candidate's accumulating verdict: how many of the
// dependent's distinct values found a counterpart, how many did not, and
// whether the miss budget is exhausted (counts freeze there).
type mergeRow struct {
	dep, ref         int32
	matched, missing int
	dropped          bool
}

func newMergeTable(cands []Candidate) *mergeTable {
	t := &mergeTable{}
	slot := make(map[int]int32, 2*len(cands))
	for _, c := range cands {
		for _, a := range [2]*Attribute{c.Dep, c.Ref} {
			if _, ok := slot[a.ID]; !ok {
				slot[a.ID] = 0
				t.attrs = append(t.attrs, a)
			}
		}
	}
	slices.SortFunc(t.attrs, func(a, b *Attribute) int { return cmp.Compare(a.ID, b.ID) })
	for i, a := range t.attrs {
		slot[a.ID] = int32(i)
	}
	t.rows = make([]mergeRow, len(cands))
	for i, c := range cands {
		t.rows[i] = mergeRow{dep: slot[c.Dep.ID], ref: slot[c.Ref.ID]}
	}
	slices.SortFunc(t.rows, func(a, b mergeRow) int {
		return cmp.Or(cmp.Compare(a.dep, b.dep), cmp.Compare(a.ref, b.ref))
	})
	t.rows = slices.CompactFunc(t.rows, func(a, b mergeRow) bool { return a.dep == b.dep && a.ref == b.ref })
	return t
}

// runMerge builds the candidate table and runs the kernel over it.
func runMerge(cands []Candidate, sigma float64, opts SpiderMergeOptions) (*mergeTable, error) {
	src, err := newSource(opts.Store, opts.Counter)
	if err != nil {
		return nil, err
	}
	t := newMergeTable(cands)
	m := newMerger(t, src.Open, sigma)
	err = m.run()
	m.closeAll()
	t.stats = m.stats
	return t, err
}

// mergeSlot is one attribute's state in a merge run.
type mergeSlot struct {
	cur Cursor // nil before open and once closed
	// pending[lo : lo+n] indexes the attribute's undecided rows as a
	// dependent; refs counts the undecided rows referencing it. The
	// cursor closes once both reach zero.
	lo, n, refs int32
	budget      int
	member      bool // in the current merge group
}

// merger is one k-way merge over a table's rows; open supplies each
// involved attribute's cursor.
type merger struct {
	open    func(*Attribute) (Cursor, error)
	attrs   []*Attribute
	rows    []mergeRow
	slots   []mergeSlot
	pending []int32
	front   mergeFront
	stats   Stats
	nOpen   int
}

// newMerger prepares a merge over the table's rows.
func newMerger(t *mergeTable, open func(*Attribute) (Cursor, error), sigma float64) *merger {
	m := &merger{
		open: open, attrs: t.attrs, rows: t.rows,
		slots:   make([]mergeSlot, len(t.attrs)),
		pending: make([]int32, 0, len(t.rows)),
	}
	for i, row := range t.rows {
		d := &m.slots[row.dep]
		if d.n == 0 {
			d.lo = int32(len(m.pending))
			// Exact mode keeps a budget of 0: the first miss refutes.
			if sigma > 0 {
				d.budget = missBudget(sigma, t.attrs[row.dep].Distinct)
			}
		}
		d.n++
		m.pending = append(m.pending, int32(i))
		m.slots[row.ref].refs++
	}
	return m
}

func (m *merger) run() error {
	// Open one cursor per involved attribute and seed the front, in slot
	// (= ID) order for determinism. An empty dependent decides its rows
	// with zero counts (∅ ⊆ r); an empty referenced stream never joins a
	// merge group, so every dependent value misses against it.
	for s := range m.slots {
		if m.slots[s].n == 0 && m.slots[s].refs == 0 {
			continue
		}
		cur, err := m.open(m.attrs[s])
		if err != nil {
			return err
		}
		m.slots[s].cur = cur
		m.nOpen++
		m.stats.FilesOpened++
		m.stats.MaxOpenFiles = max(m.stats.MaxOpenFiles, m.nOpen)
	}
	for s := range m.slots {
		if err := m.advance(int32(s)); err != nil {
			return err
		}
	}

	group := make([]int32, 0, len(m.slots))
	for len(m.front) > 0 {
		// The merge group: every open attribute whose stream contains the
		// minimum value. Entries of cursors closed early are dropped here.
		group = group[:0]
		v := m.front[0].val
		for len(m.front) > 0 && m.front[0].val == v {
			if s := m.front.pop(); m.slots[s].cur != nil {
				group = append(group, s)
			}
		}
		for _, s := range group {
			m.slots[s].member = true
		}
		for _, d := range group {
			m.score(d)
		}
		for _, s := range group {
			m.slots[s].member = false
		}
		for _, s := range group {
			if err := m.advance(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// score counts the merge-front value against each undecided row of
// dependent d: matched when the referenced attribute is in the group,
// missing otherwise. A row over its miss budget is refuted.
func (m *merger) score(d int32) {
	sd := &m.slots[d]
	m.stats.Comparisons += int64(sd.n)
	for i := sd.lo; i < sd.lo+sd.n; {
		row := &m.rows[m.pending[i]]
		if m.slots[row.ref].member {
			row.matched++
			i++
			continue
		}
		row.missing++
		if row.missing <= sd.budget {
			i++
			continue
		}
		row.dropped = true
		m.retire(d, i)
	}
	if sd.n == 0 {
		m.maybeClose(d)
	}
}

// advance pushes the attribute's next value, or finishes its stream: a
// dependent's end decides its undecided rows with the counts they have.
// It is a no-op on cursors not open.
func (m *merger) advance(s int32) error {
	sl := &m.slots[s]
	if sl.cur == nil {
		return nil
	}
	if v, ok := sl.cur.Next(); ok {
		m.front.push(v, s)
		return nil
	}
	if err := sl.cur.Err(); err != nil {
		return err
	}
	for sl.n > 0 {
		m.retire(s, sl.lo)
	}
	m.closeCursor(s)
	return nil
}

// retire removes pending[i] from dependent d's undecided rows and closes
// the referenced cursor when nothing needs it any longer.
func (m *merger) retire(d, i int32) {
	sd := &m.slots[d]
	r := m.rows[m.pending[i]].ref
	sd.n--
	m.pending[i] = m.pending[sd.lo+sd.n]
	m.slots[r].refs--
	if r != d {
		m.maybeClose(r)
	}
}

// maybeClose closes the attribute's cursor once it is needed neither as
// a dependent nor as a referenced side. Its front entry is dropped
// lazily.
func (m *merger) maybeClose(s int32) {
	if m.slots[s].n == 0 && m.slots[s].refs == 0 {
		m.closeCursor(s)
	}
}

func (m *merger) closeCursor(s int32) {
	if cur := m.slots[s].cur; cur != nil {
		cur.Close()
		m.slots[s].cur = nil
		m.nOpen--
	}
}

func (m *merger) closeAll() {
	for s := range m.slots {
		m.closeCursor(int32(s))
	}
}

// frontEntry is one attribute's current value on the merge front.
type frontEntry struct {
	val  string
	slot int32
}

// mergeFront is a binary min-heap on (value, slot); the slot tie-break
// makes group order deterministic.
type mergeFront []frontEntry

func (f mergeFront) less(i, j int) bool {
	if f[i].val != f[j].val {
		return f[i].val < f[j].val
	}
	return f[i].slot < f[j].slot
}

func (f *mergeFront) push(val string, slot int32) {
	h := append(*f, frontEntry{val: val, slot: slot})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*f = h
}

func (f *mergeFront) pop() int32 {
	h := *f
	top := h[0].slot
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*f = h
	return top
}

// runPool runs fn(i) for every index on a bounded worker pool (zero
// workers selects min(n, GOMAXPROCS)), returning the first error.
// Remaining indices are skipped after a failure.
func runPool(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
