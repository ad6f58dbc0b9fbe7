package ind

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// stagingBackends returns one fresh dataset per backend a sorter can be
// staged into: block-format files, memory and spill runs. Their Close
// (if any) runs at test cleanup.
func stagingBackends(t *testing.T) map[string]store.Dataset {
	sp := extsort.NewSpill()
	t.Cleanup(func() { sp.Close() })
	return map[string]store.Dataset{
		"fs":    store.NewFS(t.TempDir(), valfile.FormatBlock),
		"mem":   store.NewMem(),
		"spill": sp,
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
func stagedRunMeta(t *testing.T, ds store.Dataset, key string) extsort.RunMeta {
	t.Helper()
	data, ok, err := ds.Section(key, valfile.RunMetaSection)
	if err != nil || !ok {
		t.Fatalf("%s: run metadata section: ok=%v err=%v", key, ok, err)
	}
	meta, err := extsort.DecodeRunMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// runFiles lists the sorter spill runs left in dir.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(dir, "extsort-run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestStageSortedSpillRuns: a sorter that spilled many runs, merged in
// intermediate passes, stages the same value stream and run metadata
// into every backend, and the observer sees that stream. Column exports
// never spill, so this is the coverage of multi-run staging.
func TestStageSortedSpillRuns(t *testing.T) {
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("v%03d", (i*37)%151))
	}
	want := slices.Compact(slices.Sorted(slices.Values(vals)))

	var metas []extsort.RunMeta
	for name, ds := range stagingBackends(t) {
		runDir := t.TempDir()
		sorter := extsort.New(extsort.Config{MaxInMemory: 16, FanIn: 4, TempDir: runDir})
		for _, v := range vals {
			if err := sorter.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		var observed []string
		a := &Attribute{ID: 1}
		n, max, err := stageSorted(ds, a, "k.val", sorter, func(v string) { observed = append(observed, v) }, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(want) || max != want[len(want)-1] || a.StoreKey() == "" {
			t.Errorf("%s: n=%d max=%q key=%q, want n=%d max=%q", name, n, max, a.StoreKey(), len(want), want[len(want)-1])
		}
		if got := stagedValues(t, ds, a.StoreKey()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: staged %d values, want %d sorted distinct", name, len(got), len(want))
		}
		if !reflect.DeepEqual(observed, want) {
			t.Errorf("%s: observer saw %d values, want %d", name, len(observed), len(want))
		}
		meta := stagedRunMeta(t, ds, a.StoreKey())
		if meta.Added != int64(len(vals)) || meta.SpillRuns < 2 {
			t.Errorf("%s: run metadata %+v, want Added=%d and several spill runs", name, meta, len(vals))
		}
		metas = append(metas, meta)
		if _, spill := ds.(*extsort.Spill); !spill {
			if runs := runFiles(t, runDir); len(runs) != 0 {
				t.Errorf("%s: staging left %d spill runs behind", name, len(runs))
			}
		}
	}
	for _, m := range metas[1:] {
		if m != metas[0] {
			t.Errorf("run metadata differs across backends: %+v vs %+v", m, metas[0])
		}
	}
}

// TestColumnExportStagesWithoutRuns: a column export stages the set the
// column pass sorted in memory. Even with a sorter budget of two values
// it writes no spill run, not even into the spill backend, and every
// backend receives the column's sorted distinct set with Added equal to
// NonNull and no spill runs.
func TestColumnExportStagesWithoutRuns(t *testing.T) {
	db := randomDB(31)
	for name, ds := range stagingBackends(t) {
		runDir := t.TempDir()
		attrs, err := CollectAttributes(db)
		if err != nil {
			t.Fatal(err)
		}
		err = ExportAttributes(db, attrs, ExportConfig{
			Dataset: ds, Sort: extsort.Config{MaxInMemory: 2, TempDir: runDir}, Workers: 2, Sketches: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if runs := runFiles(t, runDir); len(runs) != 0 {
			t.Errorf("%s: column export left %d spill runs", name, len(runs))
		}
		for _, a := range attrs {
			want, err := db.Table(a.Ref.Table).DistinctCanonical(a.Ref.Column)
			if err != nil {
				t.Fatal(err)
			}
			if got := stagedValues(t, ds, a.StoreKey()); !slices.Equal(got, want) {
				t.Errorf("%s: %s: staged %v, want %v", name, a.Ref, got, want)
			}
			if meta := stagedRunMeta(t, ds, a.StoreKey()); meta != (extsort.RunMeta{Added: int64(a.NonNull)}) {
				t.Errorf("%s: %s: run metadata %+v, want Added=%d and no spill runs", name, a.Ref, meta, a.NonNull)
			}
		}
	}
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
// and a four-worker export share one table whose statistics do not
// exist yet. Run under -race; every caller must see the same statistics
// and the export must stage every column's full set.
func TestColumnPassConcurrentStatsAndExport(t *testing.T) {
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
		err = ExportAttributes(db, attrs, ExportConfig{Dataset: mem, Workers: 4})
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
		if got := stagedValues(t, mem, a.StoreKey()); !slices.Equal(got, want) {
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
	got := stagedValues(t, mem, a.StoreKey())
	if !slices.Contains(got, "zz-new") || len(got) != before.Distinct+1 || a.MaxCanonical != "zz-new" {
		t.Errorf("staged %d values (max %q) after the insert, want the %d earlier ones plus zz-new", len(got), a.MaxCanonical, before.Distinct)
	}
}
