package relstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"spider/internal/value"
)

func newTestDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase("test")
	tab := db.MustCreateTable("proteins", []Column{
		{Name: "id", Kind: value.Int},
		{Name: "accession", Kind: value.String},
		{Name: "mass", Kind: value.Float},
	})
	tab.MustInsert(value.NewInt(1), value.NewString("P12345"), value.NewFloat(10.5))
	tab.MustInsert(value.NewInt(2), value.NewString("P67890"), value.NewNull())
	tab.MustInsert(value.NewInt(3), value.NewString("P12345"), value.NewFloat(11.25))
	return db, tab
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDatabase("v")
	if _, err := db.CreateTable("", []Column{{Name: "a", Kind: value.Int}}); err == nil {
		t.Error("empty table name must fail")
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("no columns must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "", Kind: value.Int}}); err == nil {
		t.Error("empty column name must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: value.Int}, {Name: "a", Kind: value.Int}}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: value.Int}}); err != nil {
		t.Fatalf("valid create failed: %v", err)
	}
	if _, err := db.CreateTable("t", []Column{{Name: "b", Kind: value.Int}}); err == nil {
		t.Error("duplicate table must fail")
	}
}

func TestInsertArity(t *testing.T) {
	_, tab := newTestDB(t)
	if err := tab.Insert([]value.Value{value.NewInt(9)}); err == nil {
		t.Error("short row must fail")
	}
	if tab.RowCount() != 3 {
		t.Errorf("RowCount = %d, want 3", tab.RowCount())
	}
}

func TestInsertCopiesRow(t *testing.T) {
	db := NewDatabase("c")
	tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.Int}})
	row := []value.Value{value.NewInt(1)}
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[0] = value.NewInt(99)
	if got := tab.Row(0)[0].Int(); got != 1 {
		t.Errorf("stored row aliases caller slice: got %d", got)
	}
}

func TestColumnStats(t *testing.T) {
	db, _ := newTestDB(t)
	s, err := db.ColumnStats(ColumnRef{"proteins", "accession"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 3 || s.NonNull != 3 || s.Distinct != 2 {
		t.Errorf("accession stats = %+v", s)
	}
	if s.Unique {
		t.Error("accession has a duplicate, must not be unique")
	}
	if s.MinCanonical != "P12345" || s.MaxCanonical != "P67890" {
		t.Errorf("min/max = %q/%q", s.MinCanonical, s.MaxCanonical)
	}

	s, err = db.ColumnStats(ColumnRef{"proteins", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Unique || s.Distinct != 3 {
		t.Errorf("id stats = %+v", s)
	}

	s, err = db.ColumnStats(ColumnRef{"proteins", "mass"})
	if err != nil {
		t.Fatal(err)
	}
	if s.NonNull != 2 || s.Distinct != 2 || !s.Unique {
		t.Errorf("mass stats = %+v (NULL must not break uniqueness)", s)
	}
}

func TestStatsRefreshAfterInsert(t *testing.T) {
	db, tab := newTestDB(t)
	ref := ColumnRef{"proteins", "id"}
	s, _ := db.ColumnStats(ref)
	if !s.Unique {
		t.Fatal("precondition: id unique")
	}
	tab.MustInsert(value.NewInt(1), value.NewString("Q0"), value.NewNull())
	s, _ = db.ColumnStats(ref)
	if s.Unique {
		t.Error("stats must refresh: id now has duplicate 1")
	}
}

func TestEmptyColumnStats(t *testing.T) {
	db := NewDatabase("e")
	tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.String}})
	tab.MustInsert(value.NewNull())
	s, err := db.ColumnStats(ColumnRef{"t", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if s.HasNonNull || s.Unique || s.Distinct != 0 {
		t.Errorf("all-NULL column stats = %+v", s)
	}
}

func TestResolveErrors(t *testing.T) {
	db, _ := newTestDB(t)
	if _, _, err := db.Resolve(ColumnRef{"nope", "x"}); err == nil {
		t.Error("unknown table must fail")
	}
	if _, _, err := db.Resolve(ColumnRef{"proteins", "nope"}); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := db.ColumnStats(ColumnRef{"nope", "x"}); err == nil {
		t.Error("stats on unknown table must fail")
	}
	if _, err := db.ColumnKind(ColumnRef{"nope", "x"}); err == nil {
		t.Error("kind on unknown table must fail")
	}
}

func TestForeignKeys(t *testing.T) {
	db, _ := newTestDB(t)
	db.MustCreateTable("refs", []Column{{Name: "protein_id", Kind: value.Int}})
	dep := ColumnRef{"refs", "protein_id"}
	ref := ColumnRef{"proteins", "id"}
	if err := db.DeclareForeignKey(dep, ref); err != nil {
		t.Fatal(err)
	}
	if err := db.DeclareForeignKey(dep, ColumnRef{"proteins", "nope"}); err == nil {
		t.Error("FK to unknown column must fail")
	}
	if err := db.DeclareForeignKey(ColumnRef{"nope", "x"}, ref); err == nil {
		t.Error("FK from unknown table must fail")
	}
	fks := db.ForeignKeys()
	if len(fks) != 1 || fks[0].Dep != dep || fks[0].Ref != ref {
		t.Errorf("ForeignKeys = %+v", fks)
	}
	fks[0].Dep.Table = "mutated"
	if db.ForeignKeys()[0].Dep.Table != "refs" {
		t.Error("ForeignKeys must return a copy")
	}
}

func TestColumnsEnumeration(t *testing.T) {
	db, _ := newTestDB(t)
	db.MustCreateTable("z", []Column{{Name: "c", Kind: value.Int}})
	got := db.Columns()
	want := []ColumnRef{
		{"proteins", "id"}, {"proteins", "accession"}, {"proteins", "mass"}, {"z", "c"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Columns() = %v, want %v", got, want)
	}
}

func TestDistinctCanonical(t *testing.T) {
	_, tab := newTestDB(t)
	got, err := tab.DistinctCanonical("accession")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"P12345", "P67890"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctCanonical = %v, want %v", got, want)
	}
	if _, err := tab.DistinctCanonical("nope"); err == nil {
		t.Error("unknown column must fail")
	}
}

// TestColumnPassHandOver: an Insert after the statistics drops the
// sets they kept, DistinctCanonical hands over a kept set, and a later
// call runs the column pass again.
func TestColumnPassHandOver(t *testing.T) {
	db, tab := newTestDB(t)
	ref := ColumnRef{"proteins", "accession"}
	if _, err := db.ColumnStats(ref); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(value.NewInt(4), value.NewString("Q00001"), value.NewNull())
	want := []string{"P12345", "P67890", "Q00001"}
	if got, _ := tab.DistinctCanonical("accession"); !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctCanonical after Insert = %v, want %v", got, want)
	}
	if s, _ := db.ColumnStats(ref); s != referenceStats(tab, 1) {
		t.Errorf("stats after Insert %+v, want %+v", s, referenceStats(tab, 1))
	}

	first, _ := tab.DistinctCanonical("accession")
	if tab.sets[1] != nil {
		t.Error("the handed-over set is still cached")
	}
	first[0] = "changed"
	if again, _ := tab.DistinctCanonical("accession"); !reflect.DeepEqual(again, want) {
		t.Errorf("second DistinctCanonical = %v, want %v", again, want)
	}
}

func TestScanColumn(t *testing.T) {
	_, tab := newTestDB(t)
	var nulls, vals int
	n, err := tab.ScanColumn("mass", func(v value.Value) {
		if v.IsNull() {
			nulls++
		} else {
			vals++
		}
	})
	if err != nil || n != 3 || nulls != 1 || vals != 2 {
		t.Errorf("ScanColumn n=%d nulls=%d vals=%d err=%v", n, nulls, vals, err)
	}
	if _, err := tab.ScanColumn("nope", func(value.Value) {}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, tab := newTestDB(t)
	var buf bytes.Buffer
	if err := tab.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("rt")
	tab2, err := db2.loadCSV(&buf, "proteins")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 3 {
		t.Fatalf("round trip rows = %d", tab2.RowCount())
	}
	// Kinds inferred from data: id → Int, accession → String, mass → Float.
	wantKinds := []value.Kind{value.Int, value.String, value.Float}
	for i, c := range tab2.Columns {
		if c.Kind != wantKinds[i] {
			t.Errorf("column %s kind = %v, want %v", c.Name, c.Kind, wantKinds[i])
		}
	}
	// NULL round-trips as empty string → NULL.
	if !tab2.Row(1)[2].IsNull() {
		t.Error("NULL mass must survive round trip")
	}
}

func TestLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.csv", "x,y\n1,a\n2,b\n")
	write("a.csv", "k\n10\n20\n30\n")
	write("ignored.txt", "not csv")

	db := NewDatabase("dir")
	tables, err := db.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tb := range tables {
		names = append(names, tb.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("loaded tables = %v", names)
	}
	if db.Table("a").RowCount() != 3 || db.Table("b").RowCount() != 2 {
		t.Error("row counts wrong")
	}
	if db.Table("ignored") != nil {
		t.Error("non-csv file must be ignored")
	}
}

func TestLoadCSVDirErrors(t *testing.T) {
	db := NewDatabase("dir")
	if _, err := db.LoadCSVDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir must fail")
	}
	empty := t.TempDir()
	if _, err := db.LoadCSVDir(empty); err == nil {
		t.Error("dir without csv files must fail")
	}
}

func TestLoadCSVMalformed(t *testing.T) {
	db := NewDatabase("bad")
	if _, err := db.loadCSV(strings.NewReader(""), "t"); err == nil {
		t.Error("empty csv must fail")
	}
	db2 := NewDatabase("bad2")
	if _, err := db2.loadCSV(strings.NewReader("a,b\n1\n"), "t"); err == nil {
		t.Error("ragged record must fail")
	}
}

func TestLoadCSVTypeWidening(t *testing.T) {
	db := NewDatabase("w")
	tab, err := db.loadCSV(strings.NewReader("n,m\n1,1\n2.5,x\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Columns[0].Kind != value.Float {
		t.Errorf("n kind = %v, want FLOAT (1 widened by 2.5)", tab.Columns[0].Kind)
	}
	if tab.Columns[1].Kind != value.String {
		t.Errorf("m kind = %v, want VARCHAR", tab.Columns[1].Kind)
	}
}

// Property: DistinctCanonical returns a sorted duplicate-free slice whose
// element set equals the set of canonical encodings of the inserted
// non-empty values.
func TestDistinctCanonicalProperty(t *testing.T) {
	f := func(vals []string) bool {
		db := NewDatabase("p")
		tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.String}})
		want := make(map[string]struct{})
		for _, s := range vals {
			tab.MustInsert(value.Parse(s, value.String))
			if s != "" {
				want[s] = struct{}{}
			}
		}
		got, err := tab.DistinctCanonical("a")
		if err != nil {
			return false
		}
		if !sort.StringsAreSorted(got) || len(got) != len(want) {
			return false
		}
		for _, s := range got {
			if _, ok := want[s]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stats' Distinct always equals len(DistinctCanonical), and
// NonNull ≥ Distinct.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := NewDatabase("p")
		tab := db.MustCreateTable("t", []Column{{Name: "a", Kind: value.Int}})
		for _, x := range vals {
			tab.MustInsert(value.NewInt(int64(x)))
		}
		s, err := db.ColumnStats(ColumnRef{"t", "a"})
		if err != nil {
			return false
		}
		dc, _ := tab.DistinctCanonical("a")
		return s.Distinct == len(dc) && s.NonNull >= s.Distinct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceStats is the column statistics loop computed sequentially, the
// reference the parallel computeStats must reproduce.
func referenceStats(t *Table, ci int) ColumnStats {
	s := ColumnStats{Rows: t.RowCount()}
	counts := make(map[string]int)
	for i := 0; i < t.RowCount(); i++ {
		v := t.Row(i)[ci]
		if v.IsNull() {
			continue
		}
		s.NonNull++
		c := v.Canonical()
		counts[c]++
		if !s.HasNonNull || c < s.MinCanonical {
			s.MinCanonical = c
		}
		if !s.HasNonNull || c > s.MaxCanonical {
			s.MaxCanonical = c
		}
		s.HasNonNull = true
	}
	s.Distinct = len(counts)
	s.Unique = s.HasNonNull && s.Distinct == s.NonNull
	return s
}

// writeCSVDir writes files (name → content) into a new directory.
func writeCSVDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadCSVDirParallelDeterminism: on a 20-file directory the
// concurrent loader registers the tables in sorted file name order, gives
// every table the kinds and rows a one-file-at-a-time load gives it, and
// every column the statistics the sequential reference computes. The
// files differ in size so that parses finish out of name order.
func TestLoadCSVDirParallelDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	files := make(map[string]string)
	var names []string
	for f := 0; f < 20; f++ {
		name := fmt.Sprintf("t%02d", (f*7)%20) // written out of name order
		var b strings.Builder
		b.WriteString("id,code,mass,flag,empty\n")
		for r := 0; r < 50+((20-f)*37)%200; r++ {
			mass := fmt.Sprintf("%d.5", r%13)
			if r%11 == 0 {
				mass = ""
			}
			fmt.Fprintf(&b, "%d,%c%d,%s,%v,\n", r*f, 'A'+rune(r%5), r%17, mass, r%3 == 0)
		}
		files[name+".csv"] = b.String()
		names = append(names, name)
	}
	sort.Strings(names)
	dir := writeCSVDir(t, files)

	db := NewDatabase("par")
	tables, err := db.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tb := range db.Tables() {
		got = append(got, tb.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("Tables() = %v, want %v", got, names)
	}
	for i, tb := range tables {
		if tb != db.Table(names[i]) {
			t.Fatalf("returned table %d is %q, want %q", i, tb.Name, names[i])
		}
	}
	var wantRefs []ColumnRef
	for _, n := range names {
		for _, c := range []string{"id", "code", "mass", "flag", "empty"} {
			wantRefs = append(wantRefs, ColumnRef{n, c})
		}
	}
	if refs := db.Columns(); !reflect.DeepEqual(refs, wantRefs) {
		t.Fatalf("Columns() = %v, want %v", refs, wantRefs)
	}

	seq := NewDatabase("seq")
	for _, n := range names {
		if _, err := seq.LoadCSVFile(filepath.Join(dir, n+".csv"), ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		tb, want := db.Table(n), seq.Table(n)
		if !reflect.DeepEqual(tb.Columns, want.Columns) {
			t.Errorf("%s: columns %v, want %v", n, tb.Columns, want.Columns)
		}
		if !reflect.DeepEqual(tb.rows, want.rows) {
			t.Errorf("%s: rows differ from a sequential load", n)
		}
		for ci, c := range tb.Columns {
			s, err := db.ColumnStats(ColumnRef{n, c.Name})
			if err != nil {
				t.Fatal(err)
			}
			if ref := referenceStats(tb, ci); s != ref {
				t.Errorf("%s.%s: stats %+v, want %+v", n, c.Name, s, ref)
			}
		}
	}
}

// TestLoadCSVDirAllOrNothing: with two malformed files the error names
// the first one in file name order, and a failed load, whether a file
// fails to parse or a table name is taken, registers no table.
func TestLoadCSVDirAllOrNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := writeCSVDir(t, map[string]string{
		"a.csv": "k\n1\n2\n",
		"b.csv": "x,y\n1\n",
		"c.csv": "k\n3\n",
		"d.csv": "",
		"e.csv": "k\n4\n",
	})
	db := NewDatabase("bad")
	_, err := db.LoadCSVDir(dir)
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("err = %v, want the error of b.csv", err)
	}
	if n := len(db.Tables()); n != 0 {
		t.Errorf("failed load left %d tables behind", n)
	}

	good := writeCSVDir(t, map[string]string{"a.csv": "k\n1\n", "c.csv": "k\n3\n"})
	db = NewDatabase("taken")
	db.MustCreateTable("c", []Column{{Name: "k", Kind: value.Int}})
	if _, err := db.LoadCSVDir(good); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v, want a taken table name", err)
	}
	if n := len(db.Tables()); n != 1 {
		t.Errorf("database holds %d tables, want only the one created before", n)
	}
}

// TestLoadedRowsAreCapped: loaded rows share one slab, and appending to
// a row copies it instead of overwriting the next row.
func TestLoadedRowsAreCapped(t *testing.T) {
	db := NewDatabase("slab")
	tab, err := db.loadCSV(strings.NewReader("a,b\n1,x\n2,y\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	r0 := tab.Row(0)
	if cap(r0) != len(r0) {
		t.Fatalf("row cap %d, want %d", cap(r0), len(r0))
	}
	_ = append(r0, value.NewInt(99))
	if got := tab.Row(1)[0].Int(); got != 2 {
		t.Errorf("append to row 0 overwrote row 1: %d", got)
	}
}
