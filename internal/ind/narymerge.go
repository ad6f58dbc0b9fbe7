package ind

import (
	"fmt"
	"strings"

	"spider/internal/relstore"
	"spider/internal/valfile"
	"spider/internal/value"
)

// This file extends the SpiderMerge machinery to composite tuples — the
// belief the paper states in Sec 6 ("our algorithms for finding unary
// INDs more efficiently ... will also be beneficial for finding
// multivalued INDs") made concrete. Per level, every candidate column
// list becomes one synthetic attribute whose value set is the sorted
// distinct set of its encoded tuples (NULL-containing tuples dropped);
// the whole level's candidates are then decided in a single count-free
// heap merge, exactly as the unary engine decides its candidates. The
// tuple set is built the way the column pass builds a column's set: the
// table is already in memory, so its tuples are encoded into one arena,
// sorted in place by relstore.SortDistinct, which drops duplicates as
// it partitions, and staged presorted. With a file
// scratch dataset at most one tuple set per extraction worker is in
// memory at a time; memory datasets keep a level's sets until
// the level is decided.

// appendEscaped appends s to dst with the tuple-component escaping:
// bytes 0x00 and 0x01 are escaped through 0x01 (as 0x01 0x02 and
// 0x01 0x01), so 0x00 can serve as an unambiguous component separator
// for arbitrary strings.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for j := 0; j < len(s); j++ {
		if c := s[j]; c <= 1 {
			dst = append(dst, s[start:j]...)
			dst = append(dst, 1, 2-c)
			start = j + 1
		}
	}
	return append(dst, s[start:]...)
}

// encodeTuple appends the injectively encoded tuple of row values at idx
// to dst. It returns dst unchanged and false when any component is NULL
// (such tuples are dropped, matching the tupleVerifier convention).
// Components are joined by 0x00 and escaped via appendEscaped, so the
// encoding is unambiguous for arbitrary canonical strings. Only string
// kinds can hold 0x00 or 0x01; the other canonical encodings are
// printable ASCII and are appended as they are.
func encodeTuple(dst []byte, row []value.Value, idx []int) ([]byte, bool) {
	base := len(dst)
	for n, i := range idx {
		cell := row[i]
		if cell.IsNull() {
			return dst[:base], false
		}
		if n > 0 {
			dst = append(dst, 0)
		}
		if k := cell.Kind(); k == value.String || k == value.LOB {
			dst = appendEscaped(dst, cell.Str())
		} else {
			dst = cell.AppendCanonical(dst)
		}
	}
	return dst, true
}

// resolveList returns the table of a column list and the row index of
// each of its columns, in list order: the arguments encodeTuple takes.
func resolveList(db *relstore.Database, table string, cols []relstore.ColumnRef) (*relstore.Table, []int, error) {
	tab := db.Table(table)
	if tab == nil {
		return nil, nil, fmt.Errorf("ind: unknown table %q", table)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = tab.ColumnIndex(c.Column)
		if idx[i] < 0 {
			return nil, nil, fmt.Errorf("ind: unknown column %s", c)
		}
	}
	return tab, idx, nil
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
	var b []byte
	for i, c := range cols {
		if i > 0 {
			b = append(b, 0)
		}
		b = appendEscaped(b, c.Column)
	}
	return relstore.ColumnRef{Table: table, Column: string(b)}
}

// mergeLevelVerifier verifies one level at a time with the SpiderMerge
// heap merge over encoded tuple streams.
type mergeLevelVerifier struct {
	db    *relstore.Database
	opts  NaryOptions
	stats *NaryStats
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

// runMerge stages every list's sorted tuple set into the scratch
// dataset and decides the level's candidates in one SpiderMerge. The
// level's tuple sets are removed once it is decided, so storage stays
// bounded by one level.
func (m *mergeLevelVerifier) runMerge(arity int, lists []*tupleList, pairs []Candidate, counter *valfile.ReadCounter) (*Result, error) {
	keys := make([]string, len(lists))
	defer func() {
		for _, k := range keys {
			if k != "" {
				m.opts.Scratch.Remove(k)
			}
		}
	}()
	err := relstore.Parallel(len(lists), func(i int) error {
		tuples, err := m.tupleSet(lists[i])
		if err != nil {
			return err
		}
		key := fmt.Sprintf("nary_l%02d_%06d.val", arity, i)
		n, _, err := stageSorted(m.opts.Scratch, lists[i].attr, key, tuples, int64(lists[i].attr.NonNull), nil, nil)
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

// tupleSet scans the list's table once and returns the sorted distinct
// set of its NULL-free encoded tuples, filling the synthetic attribute's
// row counts; staging sets its exact Distinct. Every tuple is a slice of
// an arena string, so the set costs a few allocations in all rather
// than one per tuple.
func (m *mergeLevelVerifier) tupleSet(l *tupleList) ([]string, error) {
	tab, idx, err := resolveList(m.db, l.table, l.cols)
	if err != nil {
		return nil, err
	}
	rows := tab.RowCount()
	tuples := make([]string, 0, rows)
	var (
		arena strings.Builder
		used  int // bytes in arenas before the current one
		buf   []byte
		ok    bool
		row   = make([]value.Value, len(tab.Columns))
	)
	for r := 0; r < rows; r++ {
		for _, c := range idx {
			row[c] = tab.Value(r, c)
		}
		if buf, ok = encodeTuple(buf[:0], row, idx); !ok {
			continue
		}
		if arena.Cap()-arena.Len() < len(buf) {
			// Size a fresh arena for this tuple and the rows left at
			// the mean tuple length so far. The tuples already sliced
			// keep the previous arena alive, so an arena that runs
			// short costs one more arena, never a copy.
			used += arena.Len()
			mean := (used + len(buf) + len(tuples)) / (len(tuples) + 1)
			arena = strings.Builder{}
			arena.Grow(len(buf) + (rows-r-1)*mean)
		}
		start := arena.Len()
		arena.Write(buf)
		tuples = append(tuples, arena.String()[start:])
	}
	l.attr.Rows = rows
	l.attr.NonNull = len(tuples)
	return relstore.SortDistinct(tuples), nil
}
