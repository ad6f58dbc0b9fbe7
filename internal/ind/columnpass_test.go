package ind

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// stagingBackends returns one fresh dataset per backend a sorted set
// can be staged into: block-format files and memory (the mem, snapshot
// and spill backends of the public API all stage into a store.Mem).
func stagingBackends(t *testing.T) map[string]store.Dataset {
	return map[string]store.Dataset{
		"fs":  store.NewFS(t.TempDir()),
		"mem": store.NewMem(),
	}
}

// stagedValues reads key's whole value stream out of ds.
func stagedValues(t *testing.T, ds store.Dataset, key string) []string {
	t.Helper()
	c, err := ds.Open(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, c)
}

// stagedRunMeta decodes the run metadata staged next to key.
func stagedRunMeta(t *testing.T, ds store.Dataset, key string) valfile.RunMeta {
	t.Helper()
	data, ok, err := ds.Section(key, valfile.RunMetaSection)
	if err != nil || !ok {
		t.Fatalf("%s: run metadata section: ok=%v err=%v", key, ok, err)
	}
	meta, err := valfile.DecodeRunMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestStageSortedEveryBackend: a sorted distinct set and the count it
// was deduplicated from stage the same value stream and run metadata
// into every backend, the observer sees that stream, and the attribute
// points at the staged key.
func TestStageSortedEveryBackend(t *testing.T) {
	var bag []string
	for i := 0; i < 400; i++ {
		bag = append(bag, fmt.Sprintf("v%03d", (i*37)%151))
	}
	want := slices.Compact(slices.Sorted(slices.Values(bag)))

	for name, ds := range stagingBackends(t) {
		var observed []string
		a := &Attribute{ID: 1}
		vals := slices.Clone(want)
		n, max, err := stageSorted(ds, a, "k.val", vals, int64(len(bag)), func(v string) { observed = append(observed, v) }, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(want) || max != want[len(want)-1] || a.Key != "k.val" {
			t.Errorf("%s: n=%d max=%q key=%q, want n=%d max=%q", name, n, max, a.Key, len(want), want[len(want)-1])
		}
		if got := stagedValues(t, ds, a.Key); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: staged %d values, want %d sorted distinct", name, len(got), len(want))
		}
		if !reflect.DeepEqual(observed, want) {
			t.Errorf("%s: observer saw %d values, want %d", name, len(observed), len(want))
		}
		if meta := stagedRunMeta(t, ds, a.Key); meta != (valfile.RunMeta{Added: int64(len(bag))}) {
			t.Errorf("%s: run metadata %+v, want Added=%d and no spill runs", name, meta, len(bag))
		}
	}
}

// TestStageSortedRejectsUnsorted: a set that is not strictly increasing
// fails staging on every backend and leaves no key behind.
func TestStageSortedRejectsUnsorted(t *testing.T) {
	for name, ds := range stagingBackends(t) {
		a := &Attribute{ID: 1}
		if _, _, err := stageSorted(ds, a, "k.val", []string{"a", "c", "b"}, 3, nil, nil); err == nil {
			t.Errorf("%s: unsorted set staged", name)
		}
		if c, err := ds.Open("k.val", nil); err == nil {
			c.Close()
			t.Errorf("%s: a failed staging left its key readable", name)
		}
		if a.Key != "" {
			t.Errorf("%s: a failed staging set the attribute's key to %q", name, a.Key)
		}
	}
}

// TestRunMetaSectionGolden pins the bytes of the RUNM section of a
// block-format export: the 16-byte little-endian encoding of
// {Added: NonNull, SpillRuns: 0}, the bytes the external sorter wrote
// for every set that fit in memory.
func TestRunMetaSectionGolden(t *testing.T) {
	db, _ := columnPassDB()
	dir := t.TempDir()
	ds := store.NewFS(dir)
	attrs, err := Prepare(db, ExportConfig{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range attrs {
		data, ok, err := ds.Section(a.Key, valfile.RunMetaSection)
		if err != nil || !ok {
			t.Fatalf("%s: RUNM section: ok=%v err=%v", a.Ref, ok, err)
		}
		want := make([]byte, 16)
		for i, nn := 0, a.NonNull; i < 8; i, nn = i+1, nn>>8 {
			want[i] = byte(nn)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: RUNM = % x, want % x", a.Ref, data, want)
		}
	}
}

// TestColumnExportStagesWithoutRuns: a column export stages the set the
// column pass sorted in memory: every backend receives the column's
// sorted distinct set with Added equal to NonNull and no spill runs.
func TestColumnExportStagesWithoutRuns(t *testing.T) {
	setGOMAXPROCS(t, 2)
	db := randomDB(31)
	for name, ds := range stagingBackends(t) {
		attrs, err := CollectAttributes(db)
		if err != nil {
			t.Fatal(err)
		}
		err = ExportAttributes(db, attrs, ExportConfig{Dataset: ds, Sketches: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range attrs {
			want, err := db.Table(a.Ref.Table).DistinctCanonical(a.Ref.Column)
			if err != nil {
				t.Fatal(err)
			}
			if got := stagedValues(t, ds, a.Key); !slices.Equal(got, want) {
				t.Errorf("%s: %s: staged %v, want %v", name, a.Ref, got, want)
			}
			if meta := stagedRunMeta(t, ds, a.Key); meta != (valfile.RunMeta{Added: int64(a.NonNull)}) {
				t.Errorf("%s: %s: run metadata %+v, want Added=%d and no spill runs", name, a.Ref, meta, a.NonNull)
			}
		}
	}
}

// setGOMAXPROCS sets GOMAXPROCS, and with it the width of the export
// pool, to n until the test ends.
func setGOMAXPROCS(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// columnPassDB is one table whose columns range from unique to heavily
// duplicated, with NULLs.
func columnPassDB() (*relstore.Database, *relstore.Table) {
	db := relstore.NewDatabase("pass")
	tab := db.MustCreateTable("t", []relstore.Column{
		{Name: "id", Kind: value.Int}, {Name: "code", Kind: value.String},
		{Name: "grp", Kind: value.Int}, {Name: "note", Kind: value.String},
	})
	for i := 0; i < 3000; i++ {
		note := value.NewNull()
		if i%3 == 0 {
			note = value.NewString(fmt.Sprintf("n%d", i%40))
		}
		tab.MustInsert(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("c%04d", (i*7)%1200)), value.NewInt(int64(i%9)), note)
	}
	return db, tab
}

// TestColumnPassConcurrentStatsAndExport: concurrent ColumnStats calls
// and an export on a four-wide pool share one table whose statistics do not
// exist yet. Run under -race; every caller must see the same statistics
// and the export must stage every column's full set.
func TestColumnPassConcurrentStatsAndExport(t *testing.T) {
	setGOMAXPROCS(t, 4)
	db, tab := columnPassDB()
	refs := db.Columns()
	var wg sync.WaitGroup
	stats := make([][]relstore.ColumnStats, 4)
	for g := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ref := range refs {
				st, err := db.ColumnStats(ref)
				if err != nil {
					t.Error(err)
					return
				}
				stats[g] = append(stats[g], st)
			}
		}()
	}
	mem := store.NewMem()
	attrs, err := CollectAttributes(db)
	if err == nil {
		err = ExportAttributes(db, attrs, ExportConfig{Dataset: mem})
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for g := range stats {
		if !reflect.DeepEqual(stats[g], stats[0]) {
			t.Fatalf("goroutine %d saw other statistics", g)
		}
	}
	for i, a := range attrs {
		if st := stats[0][i]; st.Distinct != a.Distinct || st.NonNull != a.NonNull {
			t.Errorf("%s: stats %+v, attribute %d/%d", a.Ref, st, a.NonNull, a.Distinct)
		}
		want, err := tab.DistinctCanonical(a.Ref.Column)
		if err != nil {
			t.Fatal(err)
		}
		if got := stagedValues(t, mem, a.Key); !slices.Equal(got, want) {
			t.Errorf("%s: staged %d values, want %d", a.Ref, len(got), len(want))
		}
	}
}

// TestExportAfterInsert: a row inserted after the statistics exist
// drops the cached sorted sets with them, so the next export stages
// the new value instead of the stale set.
func TestExportAfterInsert(t *testing.T) {
	db, tab := columnPassDB()
	ref := relstore.ColumnRef{Table: "t", Column: "code"}
	before, err := db.ColumnStats(ref)
	if err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(value.NewInt(-1), value.NewString("zz-new"), value.NewInt(0), value.NewNull())
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMem()
	if err := ExportAttributes(db, attrs, ExportConfig{Dataset: mem}); err != nil {
		t.Fatal(err)
	}
	a := attrs[tab.ColumnIndex("code")]
	got := stagedValues(t, mem, a.Key)
	if !slices.Contains(got, "zz-new") || len(got) != before.Distinct+1 || a.MaxCanonical != "zz-new" {
		t.Errorf("staged %d values (max %q) after the insert, want the %d earlier ones plus zz-new", len(got), a.MaxCanonical, before.Distinct)
	}
}
