package ind

import (
	"fmt"
	"strings"

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
// are then decided in a single count-free heap merge, exactly as the
// unary engine decides its candidates. Verification becomes
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
// heap merge over encoded tuple streams.
type mergeLevelVerifier struct {
	db      *relstore.Database
	opts    NaryOptions
	workDir string
	// scratch receives each level's encoded tuple sets; a filesystem
	// dataset rooted at workDir unless the caller supplied a backend.
	scratch store.Dataset
	stats   *NaryStats
}

// verifyLevel decides a whole level in a single heap merge. Every
// distinct column list of the level is extracted and staged once, however
// many candidates share it.
func (m *mergeLevelVerifier) verifyLevel(arity int, cands []naryCand) ([]bool, error) {
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
	m.stats.ItemsReadByArity[arity] += counter.Total()
	m.stats.BytesReadByArity[arity] += counter.TotalBytes()
	m.stats.TuplesCompared += res.Stats.Comparisons
	return out, nil
}

// runMerge stages every list's encoded tuple stream into the scratch
// dataset and decides the level's candidates in one SpiderMerge. The
// level's tuple sets are removed once it is decided, so storage stays
// bounded by one level.
func (m *mergeLevelVerifier) runMerge(arity int, lists []*tupleList, pairs []Candidate, counter *valfile.ReadCounter) (*Result, error) {
	sortCfg := m.opts.Sort
	if sortCfg.TempDir == "" {
		sortCfg.TempDir = m.workDir
	}
	keys := make([]string, len(lists))
	defer func() {
		for _, k := range keys {
			if k != "" {
				m.scratch.Remove(k)
			}
		}
	}()
	err := runPool(len(lists), m.opts.ExportWorkers, func(i int) error {
		sorter, err := m.fillTupleSorter(lists[i], sortCfg)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("nary_l%02d_%06d.val", arity, i)
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
	return SpiderMerge(pairs, SpiderMergeOptions{Counter: counter, Store: m.opts.Store})
}

// fillTupleSorter scans the list's table once, pushing every NULL-free
// encoded tuple through a fresh external sorter, and fills the synthetic
// attribute's row counts; staging sets its exact Distinct.
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
	for r := 0; r < tab.RowCount(); r++ {
		if !encodeTuple(&b, tab.Row(r), idx) {
			continue
		}
		added++
		if err := sorter.Add(b.String()); err != nil {
			sorter.Discard()
			return nil, err
		}
	}
	l.attr.Rows = tab.RowCount()
	l.attr.NonNull = added
	return sorter, nil
}
