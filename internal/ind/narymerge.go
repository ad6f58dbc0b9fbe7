package ind

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// This file extends the SpiderMerge machinery to composite tuples — the
// belief the paper states in Sec 6 ("our algorithms for finding unary
// INDs more efficiently ... will also be beneficial for finding
// multivalued INDs") made concrete. Per level, every candidate column
// list becomes one synthetic attribute whose value set is the sorted
// distinct stream of its encoded tuples (NULL-containing tuples dropped,
// deduplication by the external sorter); the whole level's candidates
// are then decided in a single count-free heap merge — optionally
// sharded across disjoint ranges of the encoded value space — exactly as
// the unary engine decides its candidates. Verification becomes
// I/O-bound: peak memory is the extsort buffer, never a tuple set.

// appendEscaped writes s with the tuple-component escaping: bytes 0x00
// and 0x01 are escaped through 0x01, so 0x00 can serve as an
// unambiguous component separator for arbitrary strings.
func appendEscaped(b *strings.Builder, s string) {
	for j := 0; j < len(s); j++ {
		switch s[j] {
		case 0:
			b.WriteByte(1)
			b.WriteByte(2)
		case 1:
			b.WriteByte(1)
			b.WriteByte(1)
		default:
			b.WriteByte(s[j])
		}
	}
}

// encodeTuple appends the injectively encoded tuple of row values at idx
// to b, returning false when any component is NULL (such tuples are
// dropped, matching the tupleVerifier convention). Components are joined
// by 0x00 and escaped via appendEscaped, so the encoding is unambiguous
// for arbitrary canonical strings.
func encodeTuple(b *strings.Builder, row []value.Value, idx []int) bool {
	b.Reset()
	for n, i := range idx {
		cell := row[i]
		if cell.IsNull() {
			return false
		}
		if n > 0 {
			b.WriteByte(0)
		}
		appendEscaped(b, cell.Canonical())
	}
	return true
}

// tupleList is one distinct column list of a level, with the synthetic
// attribute the merge engines consume.
type tupleList struct {
	table string
	cols  []relstore.ColumnRef
	attr  *Attribute
}

// listIdent is the synthetic ColumnRef identifying a column list inside
// one level's merge: the table plus the ordered column names, joined
// with the same injective encoding as the tuple values so column names
// containing separator bytes cannot conflate two distinct lists.
func listIdent(table string, cols []relstore.ColumnRef) relstore.ColumnRef {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0)
		}
		appendEscaped(&b, c.Column)
	}
	return relstore.ColumnRef{Table: table, Column: b.String()}
}

// mergeLevelVerifier verifies one level at a time with the SpiderMerge
// heap merge over encoded tuple streams. The overlapped verifier of
// naryoverlap.go calls verifyCands concurrently for independent
// candidate groups, so stats updates are mutex-guarded and value-file
// names draw from an atomic sequence.
type mergeLevelVerifier struct {
	db      *relstore.Database
	opts    NaryOptions
	workDir string
	// scratch receives each level's encoded tuple sets; a filesystem
	// dataset rooted at workDir unless the caller supplied a backend.
	scratch store.Dataset
	stats   *NaryStats

	mu   sync.Mutex   // guards stats
	seq  atomic.Int64 // value-file name sequence, unique across groups
	spec *speculator  // nil when levels run sequentially
}

func (m *mergeLevelVerifier) verifyLevel(arity int, cands []naryCand) ([]bool, error) {
	return m.verifyCands(arity, cands)
}

func (m *mergeLevelVerifier) close() {}

// sortConfig resolves the base external-sort configuration for tuple
// extraction; TempDir defaults to the level work directory.
func (m *mergeLevelVerifier) sortConfig() extsort.Config {
	cfg := m.opts.Sort
	if cfg.TempDir == "" {
		cfg.TempDir = m.workDir
	}
	return cfg
}

// verifyCands decides one group of candidates (the whole level in
// sequential mode, one table-pair group in overlapped mode) in a single
// heap merge. Safe for concurrent calls with disjoint candidate groups.
func (m *mergeLevelVerifier) verifyCands(arity int, cands []naryCand) ([]bool, error) {
	out := make([]bool, len(cands))
	if len(cands) == 0 {
		return out, nil
	}

	// Collect the level's distinct column lists in first-appearance order
	// (deterministic: cands arrive sorted by key) and pair each candidate
	// with its dep/ref synthetic attributes.
	var lists []*tupleList
	byIdent := make(map[relstore.ColumnRef]*tupleList)
	listOf := func(table string, cols []relstore.ColumnRef) *tupleList {
		id := listIdent(table, cols)
		if l, ok := byIdent[id]; ok {
			return l
		}
		l := &tupleList{
			table: table,
			cols:  cols,
			attr:  &Attribute{ID: len(lists), Ref: id},
		}
		byIdent[id] = l
		lists = append(lists, l)
		return l
	}
	pairs := make([]Candidate, len(cands))
	for i, c := range cands {
		pairs[i] = Candidate{
			Dep: listOf(c.depTable, pairDeps(c.pairs)).attr,
			Ref: listOf(c.refTable, pairRefs(c.pairs)).attr,
		}
	}

	var counter valfile.ReadCounter
	res, err := m.runMerge(arity, lists, pairs, &counter)
	if err != nil {
		return nil, err
	}
	sat := make(map[IND]bool, len(res.Satisfied))
	for _, d := range res.Satisfied {
		sat[d] = true
	}
	for i := range cands {
		out[i] = sat[IND{Dep: pairs[i].Dep.Ref, Ref: pairs[i].Ref.Ref}]
	}
	m.mu.Lock()
	m.stats.ItemsReadByArity[arity] += counter.Total()
	m.stats.BytesReadByArity[arity] += counter.TotalBytes()
	m.stats.TuplesCompared += res.Stats.Comparisons
	m.mu.Unlock()
	return out, nil
}

// runMerge stages every list's encoded tuple stream into the scratch
// dataset and decides the level's candidates in one SpiderMerge —
// sharded when requested. The level's tuple sets are removed once it is
// decided, so storage stays bounded by one level. Keys draw from an
// atomic sequence: concurrent groups at the same arity share the
// dataset and must never collide.
func (m *mergeLevelVerifier) runMerge(arity int, lists []*tupleList, pairs []Candidate, counter *valfile.ReadCounter) (*Result, error) {
	sortCfg := m.sortConfig()
	keys := make([]string, len(lists))
	defer func() {
		for _, k := range keys {
			if k != "" {
				m.scratch.Remove(k)
			}
		}
	}()
	err := runShards(len(lists), naryWorkers(m.opts.ExportWorkers), func(i int) error {
		sorter, err := m.listSorter(arity, lists[i], sortCfg)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("nary_l%02d_%06d.val", arity, m.seq.Add(1))
		n, _, err := stageSorted(m.scratch, lists[i].attr, key, sorter, nil, nil)
		if err != nil {
			return err
		}
		keys[i] = key
		lists[i].attr.Distinct = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return SpiderMerge(pairs, SpiderMergeOptions{Counter: counter, Store: m.opts.Store, Shards: m.opts.Shards})
}

// listSorter produces the list's sorted tuple stream: a speculative
// extraction handed over by the overlap pipeline when one finished in
// time, else a fresh synchronous scan. A handed-over sorter arrives with
// the extraction-time attribute statistics, copied onto the caller's
// synthetic attribute.
func (m *mergeLevelVerifier) listSorter(arity int, l *tupleList, cfg extsort.Config) (*extsort.Sorter, error) {
	if m.spec != nil {
		if sorter, attr := m.spec.take(arity, l.table, l.cols); sorter != nil {
			l.attr.Rows = attr.Rows
			l.attr.NonNull = attr.NonNull
			l.attr.Distinct = attr.Distinct
			l.attr.MinCanonical = attr.MinCanonical
			l.attr.MaxCanonical = attr.MaxCanonical
			return sorter, nil
		}
	}
	return m.fillTupleSorter(l, cfg)
}

// fillTupleSorter scans the list's table once, pushing every NULL-free
// encoded tuple through a fresh external sorter, and fills the synthetic
// attribute's statistics (the sharded engine's range pruning reads
// NonNull/Distinct/Min/Max; Distinct is refined to the exact count when
// the tuple set is staged). A cancel channel in cfg aborts the scan
// promptly (speculative extractions are cancelled at level barriers).
func (m *mergeLevelVerifier) fillTupleSorter(l *tupleList, cfg extsort.Config) (*extsort.Sorter, error) {
	tab := m.db.Table(l.table)
	if tab == nil {
		return nil, fmt.Errorf("ind: unknown table %q", l.table)
	}
	idx := make([]int, len(l.cols))
	for i, c := range l.cols {
		idx[i] = tab.ColumnIndex(c.Column)
		if idx[i] < 0 {
			return nil, fmt.Errorf("ind: unknown column %s", c)
		}
	}
	sorter := extsort.New(cfg)
	var b strings.Builder
	added := 0
	min, max := "", ""
	for r := 0; r < tab.RowCount(); r++ {
		if cfg.Cancel != nil && r%512 == 0 {
			select {
			case <-cfg.Cancel:
				sorter.Discard()
				return nil, extsort.ErrCanceled
			default:
			}
		}
		if !encodeTuple(&b, tab.Row(r), idx) {
			continue
		}
		enc := b.String()
		if added == 0 || enc < min {
			min = enc
		}
		if added == 0 || enc > max {
			max = enc
		}
		added++
		if err := sorter.Add(enc); err != nil {
			sorter.Discard()
			return nil, err
		}
	}
	a := l.attr
	a.Rows = tab.RowCount()
	a.NonNull = added
	// Distinct is an upper bound until staging reports the exact count;
	// the merge paths only rely on Distinct > 0 ⇔ values exist.
	a.Distinct = added
	a.MinCanonical = min
	a.MaxCanonical = max
	return sorter, nil
}
