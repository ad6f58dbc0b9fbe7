// Package relstore implements the embedded relational store that stands in
// for the commercial object-relational DBMS of the paper (Sec 1.4). It
// provides a catalog of tables with typed columns, NULL handling,
// per-column statistics (non-null count, distinct count, uniqueness,
// canonical min/max) and declared constraints (primary keys, foreign
// keys) used as the gold standard in Sec 5.
//
// Tables are stored column by column. An INTEGER column is an int64
// vector with a null mask; every other column is a vector of values.
// Row readers take one value at a time (Table.Value) or fill a buffer
// they reuse (Table.AppendRow).
//
// CSV ingest reads each file whole into one string and scans it once,
// splitting it by encoding/csv's default reading rules and typing every
// field as it goes: an INTEGER field is parsed once, into its column's
// int64 vector, and a VARCHAR value is a slice of the file's text.
// AddRecords types string rows with the same routine.
//
// The store parses and computes statistics in parallel. LoadCSVDir
// parses its files concurrently and then registers the tables in file
// name order, and the first statistics call runs the column pass of
// every stale column in the database at once. Both run on Parallel's
// GOMAXPROCS-wide pool, and neither changes what is loaded or computed.
//
// One column pass serves statistics and extraction alike: it sorts the
// column's canonical values once into the sorted distinct set s(a),
// the paper's SELECT DISTINCT … ORDER BY (Sec 3), and reads the
// statistics off that set. Strings are sorted by SortDistinct, an
// in-place MSD radix sort that drops duplicates while it partitions.
// An INTEGER vector never sorts strings: a dense one sets a presence
// bit per value and reads its distinct values off the bits, a sparse
// one is sorted on integer keys in the order of its values' decimal
// text, and either formats only its distinct values. The table keeps
// each set next to its statistics until DistinctCanonical hands it
// over.
package relstore

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"spider/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind value.Kind
}

// ColumnRef names a column inside a database, the unit the IND algorithms
// operate on ("attribute" in the paper).
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference as table.column, the notation of the paper
// (e.g. sg_bioentry.accession).
func (r ColumnRef) String() string { return r.Table + "." + r.Column }

// ForeignKey is a declared referential constraint: Dep's values must be
// contained in Ref's values. Declared FKs are the gold standard for the
// Sec 5 evaluation; the OpenMMS-like dataset declares none.
type ForeignKey struct {
	Dep ColumnRef
	Ref ColumnRef
}

// Table is a named relation: an ordered set of typed columns plus rows,
// stored one vector per column.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey is the name of the declared primary key column, or ""
	// when the schema declares none.
	PrimaryKey string

	cols     []column
	n        int // rows
	colIndex map[string]int

	// mu guards the column pass cache. stats is nil until the pass has
	// run and again once Insert changes the rows. sets[i] is column
	// i's sorted distinct set from that pass, nil once handed over.
	mu    sync.Mutex
	stats []ColumnStats
	sets  [][]string
}

// ColumnStats summarises one column for candidate generation (Sec 2: the
// pretest on distinct cardinalities; Sec 4.1: the max-value pretest).
type ColumnStats struct {
	Rows         int
	NonNull      int
	Distinct     int
	Unique       bool // every non-null value occurs exactly once
	MinCanonical string
	MaxCanonical string
	HasNonNull   bool
}

// Database is a catalog of tables plus declared foreign keys.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
	fks    []ForeignKey
	// pass serializes column passes, so concurrent statistics callers
	// wait for one pass.
	pass sync.Mutex
}

// NewDatabase returns an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// CreateTable adds a table with the given columns. It fails on duplicate
// table or column names and on empty schemas.
func (db *Database) CreateTable(name string, cols []Column) (*Table, error) {
	return db.register(newTable(name, cols))
}

// newTable validates the schema and returns an empty table that belongs
// to no database yet.
func newTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("relstore: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %q has no columns", name)
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: table %q: empty column name at position %d", name, i)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %q: duplicate column %q", name, c.Name)
		}
		idx[c.Name] = i
	}
	t := &Table{Name: name, Columns: append([]Column(nil), cols...), colIndex: idx, cols: make([]column, len(cols))}
	for i, c := range cols {
		t.cols[i] = newColumn(c.Kind, 0)
	}
	return t, nil
}

// register adds a table built off the catalog, passing on the error of
// the call that built it.
func (db *Database) register(t *Table, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	if err := db.add(t); err != nil {
		return nil, err
	}
	return t, nil
}

// add registers tables in the given order. When any name is already
// taken, in the database or among tables, it registers none of them.
func (db *Database) add(tables ...*Table) error {
	names := make(map[string]bool, len(tables))
	for _, t := range tables {
		if _, ok := db.tables[t.Name]; ok || names[t.Name] {
			return fmt.Errorf("relstore: table %q already exists", t.Name)
		}
		names[t.Name] = true
	}
	for _, t := range tables {
		db.tables[t.Name] = t
		db.order = append(db.order, t.Name)
	}
	return nil
}

// MustCreateTable is CreateTable for statically known schemas (generators,
// tests); it panics on error.
func (db *Database) MustCreateTable(name string, cols []Column) *Table {
	t, err := db.CreateTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil if absent.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// Tables returns all tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// DeclareForeignKey records a foreign key constraint. The store does not
// enforce it; declared constraints serve as the evaluation gold standard.
func (db *Database) DeclareForeignKey(dep, ref ColumnRef) error {
	for _, r := range []ColumnRef{dep, ref} {
		t := db.tables[r.Table]
		if t == nil {
			return fmt.Errorf("relstore: foreign key references unknown table %q", r.Table)
		}
		if _, ok := t.colIndex[r.Column]; !ok {
			return fmt.Errorf("relstore: foreign key references unknown column %s", r)
		}
	}
	db.fks = append(db.fks, ForeignKey{Dep: dep, Ref: ref})
	return nil
}

// ForeignKeys returns the declared foreign keys in declaration order.
func (db *Database) ForeignKeys() []ForeignKey {
	return append([]ForeignKey(nil), db.fks...)
}

// Columns enumerates every column of every table in catalog order.
func (db *Database) Columns() []ColumnRef {
	var out []ColumnRef
	for _, t := range db.Tables() {
		for _, c := range t.Columns {
			out = append(out, ColumnRef{Table: t.Name, Column: c.Name})
		}
	}
	return out
}

// Resolve returns the table and column index for a reference.
func (db *Database) Resolve(ref ColumnRef) (*Table, int, error) {
	t := db.tables[ref.Table]
	if t == nil {
		return nil, 0, fmt.Errorf("relstore: unknown table %q", ref.Table)
	}
	i, ok := t.colIndex[ref.Column]
	if !ok {
		return nil, 0, fmt.Errorf("relstore: unknown column %s", ref)
	}
	return t, i, nil
}

// ColumnStats computes (and caches per table) statistics for ref. When
// ref's are stale, the call runs the column pass of every column in the
// database whose statistics are stale. Each table keeps its columns'
// sorted sets until DistinctCanonical takes them or its rows change.
func (db *Database) ColumnStats(ref ColumnRef) (ColumnStats, error) {
	t, i, err := db.Resolve(ref)
	if err != nil {
		return ColumnStats{}, err
	}
	return db.columnStats(t)[i], nil
}

// ColumnKind returns the declared kind of ref.
func (db *Database) ColumnKind(ref ColumnRef) (value.Kind, error) {
	t, i, err := db.Resolve(ref)
	if err != nil {
		return value.Null, err
	}
	return t.Columns[i].Kind, nil
}

// TotalRows returns the number of rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables() {
		n += t.n
	}
	return n
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	i, ok := t.colIndex[name]
	if !ok {
		return -1
	}
	return i
}

// Insert appends a row. The row must have exactly one value per column;
// values are accepted as-is (the loader performs kind coercion), and a
// value that is neither INTEGER nor NULL moves an INTEGER column to a
// value vector. It drops the cached statistics and sorted sets. Insert
// must not run concurrently with the table's readers.
func (t *Table) Insert(row []value.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("relstore: table %q: row has %d values, want %d", t.Name, len(row), len(t.Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, v := range row {
		t.cols[i].append(v)
	}
	t.n++
	t.stats, t.sets = nil, nil
	return nil
}

// MustInsert is Insert that panics on arity errors; for generators.
func (t *Table) MustInsert(row ...value.Value) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int { return t.n }

// Value returns the value in row r of column c.
func (t *Table) Value(r, c int) value.Value { return t.cols[c].value(r) }

// AppendRow appends the values of row r, one per column, to dst and
// returns the extended slice.
func (t *Table) AppendRow(dst []value.Value, r int) []value.Value {
	for c := range t.cols {
		dst = append(dst, t.cols[c].value(r))
	}
	return dst
}

// Row returns the i-th row as a new slice the caller owns. A scan over
// many rows reads them with Value or AppendRow instead, into a buffer
// it reuses.
func (t *Table) Row(i int) []value.Value {
	return t.AppendRow(make([]value.Value, 0, len(t.cols)), i)
}

// ScanColumn calls fn for every value (including NULLs) of the named
// column, in row order. It returns the number of values visited.
func (t *Table) ScanColumn(name string, fn func(value.Value)) (int, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return 0, fmt.Errorf("relstore: table %q: unknown column %q", t.Name, name)
	}
	c := &t.cols[i]
	for r := 0; r < t.n; r++ {
		fn(c.value(r))
	}
	return t.n, nil
}

// cachedStats returns the table's statistics, or nil when they are stale.
func (t *Table) cachedStats() []ColumnStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// columnStats returns the statistics of every column of t. When they
// are stale it first runs the column pass of every stale table of the
// database, one column per task on one pool, longest columns first so
// that no worker is left alone with a long column at the end.
func (db *Database) columnStats(t *Table) []ColumnStats {
	if s := t.cachedStats(); s != nil {
		return s
	}
	db.pass.Lock()
	defer db.pass.Unlock()
	if s := t.cachedStats(); s != nil {
		return s
	}
	type task struct {
		t  *Table
		ci int
	}
	var (
		stale []*Table
		tasks []task
	)
	for _, tb := range db.Tables() {
		if tb.cachedStats() == nil {
			stale = append(stale, tb)
			for ci := range tb.Columns {
				tasks = append(tasks, task{tb, ci})
			}
		}
	}
	slices.SortStableFunc(tasks, func(a, b task) int { return cmp.Compare(b.t.n, a.t.n) })
	stats := make(map[*Table][]ColumnStats, len(stale))
	sets := make(map[*Table][][]string, len(stale))
	for _, tb := range stale {
		stats[tb] = make([]ColumnStats, len(tb.Columns))
		sets[tb] = make([][]string, len(tb.Columns))
	}
	// A column pass cannot fail, so neither can the pool.
	_ = Parallel(len(tasks), func(i int) error {
		k := tasks[i]
		sets[k.t][k.ci], stats[k.t][k.ci] = k.t.columnPass(k.ci)
		return nil
	})
	for _, tb := range stale {
		tb.mu.Lock()
		tb.stats, tb.sets = stats[tb], sets[tb]
		tb.mu.Unlock()
	}
	return stats[t]
}

// columnPass sorts the canonical values of column ci once and drops
// the duplicates. It returns the sorted distinct set, never nil, and
// the statistics read off it: NonNull is the count before
// deduplication, Distinct the count after, and the bounds are copies
// of its first and last values, so that the statistics do not keep the
// set alive.
func (t *Table) columnPass(ci int) ([]string, ColumnStats) {
	vals, nonNull := t.cols[ci].sortedSet()
	s := ColumnStats{Rows: t.n, NonNull: nonNull}
	if s.Distinct = len(vals); s.Distinct > 0 {
		s.MinCanonical, s.MaxCanonical, s.HasNonNull = strings.Clone(vals[0]), strings.Clone(vals[s.Distinct-1]), true
	}
	s.Unique = s.HasNonNull && s.Distinct == s.NonNull
	return vals, s
}

// Parallel calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines, one after another when that width is 1, and returns when
// every call it started has returned. It returns the first error fn
// returns; once a call has failed no new index starts. This is the one
// worker pool of the module: CSV parsing, the column pass, attribute
// export, sketch builds and n-ary level staging all run on it, so
// GOMAXPROCS=1 runs each of them sequentially.
func Parallel(n int, fn func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && !failed.Load(); i = int(next.Add(1)) - 1 {
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// DistinctCanonical returns the sorted set s(a) of distinct canonical
// encodings of the column's non-null values, the in-memory analogue of
// the sorted value files. The caller owns the slice. The set the
// statistics pass made is handed over and dropped from the table, so
// it costs nothing the first time; a later call runs the column pass
// again.
func (t *Table) DistinctCanonical(name string) ([]string, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: unknown column %q", t.Name, name)
	}
	t.mu.Lock()
	var vals []string
	if t.sets != nil {
		vals, t.sets[i] = t.sets[i], nil
	}
	t.mu.Unlock()
	if vals == nil {
		vals, _ = t.columnPass(i)
	}
	return vals, nil
}
