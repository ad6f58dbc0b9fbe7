package ind

import (
	"sync"
	"sync/atomic"

	"spider/internal/extsort"
	"spider/internal/relstore"
)

// This file overlaps the levelwise n-ary search so the pipeline never
// drains between levels. Two independent sources of parallelism are
// exploited, both invisible in the output:
//
//   - Within a level, candidates over distinct (dependent table,
//     referenced table) pairs share no tuple streams and no verdict
//     dependencies; they are verified as concurrent merge fronts,
//     bounded by GOMAXPROCS.
//
//   - Across levels, candidate generation decomposes exactly by table
//     pair: the MIND join and every projection of an arity-(k+1)
//     candidate stay within one table pair, so the moment one group's
//     arity-k verdicts are in, its arity-(k+1) candidates are final —
//     regardless of groups still merging. Their tuple streams are
//     extracted speculatively while the rest of the level runs, bounded
//     by ExportWorkers, and handed to the next level's merges.
//
// Speculation is exact, never wasted on refuted candidates: streams are
// launched only for candidates already known to reach the next level.
// It is still cancelled — promptly, via extsort's cancel plumbing — when
// the search stops before consuming it (level truncation, MaxArity,
// an error in another group), so no goroutine or spill file outlives
// DiscoverNary.

// overlapVerifier runs one level's candidate groups as concurrent merge
// fronts and begins the next level's tuple extraction as each group
// finishes.
type overlapVerifier struct {
	m    *mergeLevelVerifier
	spec *speculator
}

func newOverlapVerifier(m *mergeLevelVerifier) *overlapVerifier {
	m.spec = newSpeculator(naryWorkers(m.opts.ExportWorkers))
	return &overlapVerifier{m: m, spec: m.spec}
}

// candGroup is one table pair's slice of a level, with the positions of
// its candidates in the level's global order.
type candGroup struct {
	cands []naryCand
	idx   []int
}

// groupCands partitions a level into table-pair groups, preserving the
// level's (sorted) candidate order within each group.
func groupCands(cands []naryCand) []*candGroup {
	var order []*candGroup
	byPair := make(map[[2]string]*candGroup)
	for i, c := range cands {
		k := [2]string{c.depTable, c.refTable}
		g := byPair[k]
		if g == nil {
			g = &candGroup{}
			byPair[k] = g
			order = append(order, g)
		}
		g.cands = append(g.cands, c)
		g.idx = append(g.idx, i)
	}
	return order
}

func (o *overlapVerifier) verifyLevel(arity int, cands []naryCand) ([]bool, error) {
	out := make([]bool, len(cands))
	if len(cands) == 0 {
		return out, nil
	}
	groups := groupCands(cands)
	err := runShards(len(groups), 0, func(i int) error {
		g := groups[i]
		verdicts, err := o.m.verifyCands(arity, g.cands)
		if err != nil {
			return err
		}
		for j, v := range verdicts {
			out[g.idx[j]] = v // indices are disjoint across groups
		}
		if arity+1 > o.m.opts.MaxArity {
			return nil
		}
		// This group's next-level candidates are already final (the join
		// and all projection prunes are table-pair-local); speculate
		// their tuple streams while other groups are still merging.
		var survivors []naryCand
		local := make(map[string]bool)
		for j, v := range verdicts {
			if v {
				survivors = append(survivors, g.cands[j])
				local[g.cands[j].key()] = true
			}
		}
		for _, nc := range generateLevel(survivors, local) {
			o.spec.launch(o.m, arity+1, nc)
		}
		return nil
	})
	if err != nil {
		o.spec.cancelAll()
		return nil, err
	}
	return out, nil
}

func (o *overlapVerifier) close() { o.spec.cancelAll() }

// specEntry is one speculative tuple-stream extraction.
type specEntry struct {
	cancel  chan struct{}
	done    chan struct{}
	claimed atomic.Bool // set by whoever commits the extraction: worker or reclaiming consumer
	sorter  *extsort.Sorter
	attr    Attribute // extraction-time statistics, copied to the consumer's attribute
	err     error
}

// speculator tracks in-flight speculative extractions keyed by
// (arity, table, column list). Every launched worker is joined by
// cancelAll, and every produced sorter is either handed to exactly one
// consumer or discarded — no goroutine or spill file leaks.
type speculator struct {
	mu       sync.Mutex
	entries  map[specID]*specEntry
	canceled bool
	sem      chan struct{} // bounds concurrent extractions
	wg       sync.WaitGroup
}

func newSpeculator(workers int) *speculator {
	return &speculator{
		entries: make(map[specID]*specEntry),
		sem:     make(chan struct{}, workers),
	}
}

// specID identifies one speculative extraction: arity plus the list's
// synthetic column identity. A comparable struct key is injective by
// construction — no separator to collide with (the PR 4 bug class).
type specID struct {
	arity int
	list  relstore.ColumnRef
}

func specKey(arity int, table string, cols []relstore.ColumnRef) specID {
	return specID{arity: arity, list: listIdent(table, cols)}
}

// launch begins extraction of the candidate's dependent and referenced
// tuple streams, unless one is already in flight (lists are commonly
// shared between candidates).
func (s *speculator) launch(m *mergeLevelVerifier, arity int, c naryCand) {
	s.launchList(m, arity, c.depTable, pairDeps(c.pairs))
	s.launchList(m, arity, c.refTable, pairRefs(c.pairs))
}

func (s *speculator) launchList(m *mergeLevelVerifier, arity int, table string, cols []relstore.ColumnRef) {
	key := specKey(arity, table, cols)
	s.mu.Lock()
	if s.canceled || s.entries[key] != nil {
		s.mu.Unlock()
		return
	}
	e := &specEntry{cancel: make(chan struct{}), done: make(chan struct{})}
	s.entries[key] = e
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer close(e.done)
		select {
		case s.sem <- struct{}{}:
		case <-e.cancel:
			e.err = extsort.ErrCanceled
			return
		}
		defer func() { <-s.sem }()
		if !e.claimed.CompareAndSwap(false, true) {
			// A consumer reclaimed the list while this worker was queued;
			// skip the now-pointless scan.
			e.err = extsort.ErrCanceled
			return
		}
		cfg := m.sortConfig()
		cfg.Cancel = e.cancel
		sorter, err := m.fillTupleSorter(&tupleList{table: table, cols: cols, attr: &e.attr}, cfg)
		if err != nil {
			e.err = err
			return
		}
		select {
		case <-e.cancel:
			// Cancelled after the fill completed; nobody will take it.
			sorter.Discard()
			e.err = extsort.ErrCanceled
		default:
			e.sorter = sorter
		}
	}()
}

// take hands the list's speculative sorter to the caller, or returns nil
// when none is usable (never launched, cancelled, failed, or still
// queued behind the worker bound — reclaimed rather than waited for);
// the caller then extracts synchronously. Each entry is consumed at most
// once.
func (s *speculator) take(arity int, table string, cols []relstore.ColumnRef) (*extsort.Sorter, *Attribute) {
	s.mu.Lock()
	key := specKey(arity, table, cols)
	e := s.entries[key]
	delete(s.entries, key)
	s.mu.Unlock()
	if e == nil {
		return nil, nil
	}
	if e.claimed.CompareAndSwap(false, true) {
		// Extraction hadn't started; wake the queued worker and scan
		// synchronously instead of waiting behind the semaphore.
		close(e.cancel)
		return nil, nil
	}
	<-e.done
	if e.err != nil || e.sorter == nil {
		return nil, nil
	}
	return e.sorter, &e.attr
}

// cancelAll aborts every in-flight extraction, waits for all workers to
// exit, and discards any finished sorters (removing their spill files).
// Idempotent; called at every early exit from the search and again from
// close().
func (s *speculator) cancelAll() {
	s.mu.Lock()
	s.canceled = true
	entries := s.entries
	s.entries = make(map[specID]*specEntry)
	for _, e := range entries {
		close(e.cancel)
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, e := range entries {
		<-e.done
		if e.sorter != nil {
			e.sorter.Discard()
		}
	}
}
