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

	"spider/internal/sketch"
	"spider/internal/store"
	"spider/internal/valfile"
)

// This file is the one merge kernel behind SpiderMerge and
// PartialSpiderMerge: the paper's one-pass test (Sec 3.3 — every value
// set is read at most once on one shared merge front) and its partial-IND
// extension (Sec 7) are the same algorithm. Every candidate carries
// matched/missing counts and is refuted as soon as its misses exceed the
// dependent's budget: |s(a)| − ⌈σ·|s(a)|⌉ in partial mode, 0 in exact
// mode, where the first miss refutes. Sharding runs the same kernel once
// per disjoint value range; a dependent value can only find its match
// inside its own range, so the per-range counts sum to exactly the
// counts a single merge produces.

// SpiderMergeOptions tunes SpiderMerge and PartialSpiderMerge.
type SpiderMergeOptions struct {
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; nil reads the value files
	// ExportAttributes wrote, by path. An unsharded run opens each
	// attribute once; a sharded run opens it once per shard, each open
	// bounded to the shard's value range.
	Store store.Dataset
	// Shards is S, the number of disjoint value ranges merged
	// concurrently on min(S, GOMAXPROCS) workers; 0 or 1 runs one merge
	// inline. Boundaries are planned from the attributes' KMV sketch
	// samples when every attribute carries one (equal estimated value
	// mass per shard), else from attribute min/max values. The output is
	// identical at any shard count.
	Shards int
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
	return spiderMerge(cands, opts, nil)
}

// spiderMerge is SpiderMerge over explicit shard boundaries; nil plans
// them.
func spiderMerge(cands []Candidate, opts SpiderMergeOptions, bounds []string) (*Result, error) {
	start := time.Now()
	t, err := runMerge(cands, 0, opts, bounds)
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
	t, err := runMerge(cands, sigma, opts, nil)
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

// runMerge builds the candidate table and runs the kernel over it: inline
// once when S ≤ 1, else once per value range on a worker pool, joining
// the per-shard rows by summing counts and OR-ing refutations. bounds,
// when non-nil, replaces the planned shard boundaries.
func runMerge(cands []Candidate, sigma float64, opts SpiderMergeOptions, bounds []string) (*mergeTable, error) {
	t := newMergeTable(cands)
	src := newSource(opts.Store, opts.Counter)
	if opts.Shards <= 1 && bounds == nil {
		m := newMerger(t, t.rows, src.Open, sigma, nil)
		err := m.run()
		m.closeAll()
		t.stats = m.stats
		return t, err
	}

	plan, err := planShards(t.attrs, src, opts.Shards, bounds)
	if err != nil {
		return nil, err
	}
	// Shards share nothing but the table's attributes and the atomic read
	// counter: each opens its own cursors into its own copy of the rows.
	n := len(plan.ranges)
	shardRows := make([][]mergeRow, n)
	shardStats := make([]Stats, n)
	shardReads := make([]atomic.Int64, n)
	shardTimes := make([]time.Duration, n)
	err = runShards(n, 0, func(i int) error {
		shardStart := time.Now()
		shardRows[i] = slices.Clone(t.rows)
		shard := shardSource{src: src, bounds: plan.ranges[i], reads: &shardReads[i]}
		m := newMerger(t, shardRows[i], shard.Open, sigma, &plan.ranges[i])
		err := m.run()
		m.closeAll()
		shardStats[i] = m.stats
		shardTimes[i] = time.Since(shardStart)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j, row := range shardRows[i] {
			t.rows[j].matched += row.matched
			t.rows[j].missing += row.missing
			t.rows[j].dropped = t.rows[j].dropped || row.dropped
		}
		t.stats.Comparisons += shardStats[i].Comparisons
		t.stats.FilesOpened += shardStats[i].FilesOpened
		t.stats.MaxOpenFiles = max(t.stats.MaxOpenFiles, shardStats[i].MaxOpenFiles)
	}
	t.stats.ShardPlanner = plan.planner
	t.stats.ShardPlanFallback = plan.fallback
	t.stats.ShardItemsRead = make([]int64, n)
	for i := range shardReads {
		t.stats.ShardItemsRead[i] = shardReads[i].Load()
	}
	t.stats.ShardDurations = shardTimes
	return t, nil
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

// newMerger prepares a merge over rows. With within set, rows whose
// dependent provably has no values in the range are left out: their
// counts stay 0/0, which is the range's exact contribution.
func newMerger(t *mergeTable, rows []mergeRow, open func(*Attribute) (Cursor, error), sigma float64, within *valfile.Range) *merger {
	m := &merger{
		open: open, attrs: t.attrs, rows: rows,
		slots:   make([]mergeSlot, len(t.attrs)),
		pending: make([]int32, 0, len(rows)),
	}
	for i, row := range rows {
		if within != nil && attrOutsideRange(t.attrs[row.dep], *within) {
			continue
		}
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
		// Canned empty cursors (a shard's view of an attribute with no
		// values in range) open no file and must not distort the Sec 4.2
		// open-files metric.
		if _, empty := cur.(emptyCursor); !empty {
			m.nOpen++
			m.stats.FilesOpened++
			m.stats.MaxOpenFiles = max(m.stats.MaxOpenFiles, m.nOpen)
		}
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
		if _, empty := cur.(emptyCursor); !empty {
			m.nOpen--
		}
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

// shardSource views a source through one shard's bounds. Attributes
// whose [MinCanonical, MaxCanonical] span provably misses the range are
// served a canned empty cursor without touching the underlying source —
// value domains are typically localized (integers here, accession
// strings there), so most shards open only a fraction of the attributes.
type shardSource struct {
	src    source
	bounds valfile.Range
	// reads tallies the items this shard read — the global Counter cannot
	// attribute reads to shards once they run concurrently.
	reads *atomic.Int64
}

func (s shardSource) Open(a *Attribute) (Cursor, error) {
	if a.Distinct > 0 && attrOutsideRange(a, s.bounds) {
		return emptyCursor{}, nil
	}
	cur, err := s.src.OpenRange(a, s.bounds)
	if err != nil {
		return nil, err
	}
	return &tallyCursor{Cursor: cur, reads: s.reads}, nil
}

// tallyCursor counts delivered values into a per-shard tally on top of
// whatever global counter the underlying source already feeds.
type tallyCursor struct {
	Cursor
	reads *atomic.Int64
}

func (c *tallyCursor) Next() (string, bool) {
	v, ok := c.Cursor.Next()
	if ok {
		c.reads.Add(1)
	}
	return v, ok
}

// attrOutsideRange reports whether the attribute's catalog statistics
// prove it has no values inside bounds: either the value set is empty,
// or its [MinCanonical, MaxCanonical] span misses the range. The
// statistics come from the same extraction pipeline as the value
// streams, exactly like the Sec 4.1 max-value pretest.
func attrOutsideRange(a *Attribute, bounds valfile.Range) bool {
	if a.Distinct == 0 {
		return true
	}
	return a.MaxCanonical < bounds.Lo || (bounds.HasHi && a.MinCanonical >= bounds.Hi)
}

// emptyCursor is an always-exhausted cursor: the in-shard view of an
// attribute with no values in the shard's range.
type emptyCursor struct{}

func (emptyCursor) Next() (string, bool) { return "", false }
func (emptyCursor) Err() error           { return nil }
func (emptyCursor) Close() error         { return nil }

// shardPlan is planShards' outcome: the ranges the shards merge over,
// plus the planner that ran ("explicit", "kmv", "minmax") and any
// fallback note for Stats — a plan that collapsed to fewer shards than
// requested is recorded, not hidden.
type shardPlan struct {
	ranges   []valfile.Range
	planner  string
	fallback string
}

// planShards turns explicit boundaries, or boundaries planned for S
// shards, into the half-open ranges the shards merge over. Planning uses
// the attributes' KMV samples when every non-empty attribute carries one
// and min/max order statistics otherwise.
func planShards(attrs []*Attribute, src source, shards int, bounds []string) (shardPlan, error) {
	plan := shardPlan{planner: "explicit"}
	if bounds == nil {
		if kmv, ok := kmvBoundaries(attrs, shards); ok {
			plan.planner, bounds = "kmv", kmv
			if len(bounds) < shards-1 {
				plan.fallback = fmt.Sprintf("kmv sample supports only %d of %d shards (skewed or tiny value pool)", len(bounds)+1, shards)
			}
		} else {
			plan.planner = "minmax"
			var err error
			if bounds, err = shardBoundaries(attrs, src, shards); err != nil {
				return shardPlan{}, err
			}
			if len(bounds) == 0 {
				// The quantile path collapses to one shard when the pooled
				// sample holds at most one distinct value (all attribute
				// min == max).
				plan.fallback = fmt.Sprintf("boundary sample collapsed: 1 shard instead of %d (≤1 distinct sample value)", shards)
			}
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return shardPlan{}, fmt.Errorf("ind: shard boundaries must be strictly ascending, got %q after %q", bounds[i], bounds[i-1])
		}
	}
	plan.ranges = shardRanges(bounds)
	return plan, nil
}

// kmvBoundaries plans equal-estimated-mass boundaries from the
// attributes' KMV value samples. The second return is false when any
// non-empty attribute lacks a sample (sketches absent, built hash-only,
// or loaded from the pre-sample disk format) — planning then uses
// min/max rather than mixing calibrated and blind estimates.
func kmvBoundaries(attrs []*Attribute, shards int) ([]string, bool) {
	var samples []sketch.WeightedSample
	for _, a := range attrs {
		if a.Distinct <= 0 && a.NonNull <= 0 {
			continue // empty value set contributes no mass
		}
		if a.Sketch == nil || len(a.Sketch.Sample()) == 0 {
			return nil, false
		}
		samples = append(samples, sketch.WeightedSample{
			Values: a.Sketch.Sample(),
			Weight: float64(a.Distinct),
		})
	}
	if len(samples) == 0 {
		return nil, false
	}
	return sketch.PlanBoundaries(samples, shards), true
}

// shardBoundaries picks at most shards-1 strictly ascending boundary
// values from cheap order statistics of the attributes: every
// attribute's canonical minimum and maximum plus the dataset's samples
// (block-index first values, spill-run fronts). Quantiles of the pooled
// sample approximate an even split of the merged value space; skewed
// samples collapse into fewer (still correct) shards.
func shardBoundaries(attrs []*Attribute, src source, shards int) ([]string, error) {
	var sample []string
	for _, a := range attrs {
		if a.Distinct > 0 || a.NonNull > 0 {
			sample = append(sample, a.MinCanonical, a.MaxCanonical)
		}
		vs, err := src.Sample(a, 4)
		if err != nil {
			return nil, err
		}
		sample = append(sample, vs...)
	}
	sort.Strings(sample)
	sample = slices.Compact(sample)
	if len(sample) == 0 {
		return nil, nil
	}

	var bounds []string
	for i := 1; i < shards; i++ {
		b := sample[i*len(sample)/shards]
		// Quantiles of a small sample may repeat; and a boundary equal to
		// the global minimum would only produce an empty first shard.
		if b > sample[0] && (len(bounds) == 0 || b > bounds[len(bounds)-1]) {
			bounds = append(bounds, b)
		}
	}
	return bounds, nil
}

// shardRanges turns S-1 ascending boundaries into S half-open ranges
// covering the whole value space.
func shardRanges(bounds []string) []valfile.Range {
	ranges := make([]valfile.Range, 0, len(bounds)+1)
	lo := ""
	for _, b := range bounds {
		ranges = append(ranges, valfile.Range{Lo: lo, Hi: b, HasHi: true})
		lo = b
	}
	return append(ranges, valfile.Range{Lo: lo})
}

// runShards runs fn(i) for every index on a bounded worker pool (zero
// workers selects min(n, GOMAXPROCS)), returning the first error.
// Remaining indices are skipped after a failure.
func runShards(n, workers int, fn func(i int) error) error {
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
