package spider

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func dirtyDatabase(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("dirty")
	var parents, children [][]string
	for i := 0; i < 100; i++ {
		parents = append(parents, []string{fmt.Sprintf("%d", i)})
	}
	for i := 0; i < 45; i++ {
		children = append(children, []string{fmt.Sprintf("%d", i)})
	}
	for i := 0; i < 5; i++ {
		children = append(children, []string{fmt.Sprintf("%d", 90000+i)}) // dangling
	}
	if err := db.AddTable("parent", []string{"id"}, parents); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("child", []string{"pid"}, children); err != nil {
		t.Fatal(err)
	}
	return db
}

// setGOMAXPROCS sets GOMAXPROCS, and with it the width of the export
// pool, to n until the test ends.
func setGOMAXPROCS(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestFindPartialINDs(t *testing.T) {
	db := dirtyDatabase(t)
	// Exact discovery misses the dirty FK...
	exact, err := FindINDs(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range exact.INDs {
		if d.Dep.Table == "child" {
			t.Fatalf("exact IND unexpectedly holds: %s", d)
		}
	}
	// ...partial discovery at σ=0.9 finds it with 90% coverage.
	partials, stats, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range partials {
		if p.Dep.String() == "child.pid" && p.Ref.String() == "parent.id" {
			found = true
			if p.Coverage < 0.89 || p.Coverage > 0.91 || p.Missing != 5 {
				t.Errorf("partial = %+v", p)
			}
			if !strings.Contains(p.String(), "90.0%") {
				t.Errorf("String() = %q", p.String())
			}
		}
	}
	if !found {
		t.Errorf("partial IND not found: %v", partials)
	}
	if stats.Candidates == 0 {
		t.Error("stats missing")
	}
	// Regression: the counter must be wired through BruteForcePartial —
	// a run that scanned value files cannot report zero items read.
	if stats.ItemsRead == 0 {
		t.Error("FindPartialINDs Stats.ItemsRead = 0, counter not wired through")
	}
}

func TestFindPartialINDsBadThreshold(t *testing.T) {
	if _, _, err := FindPartialINDs(dirtyDatabase(t), PartialOptions{Threshold: 0}); err == nil {
		t.Error("threshold 0 must fail")
	}
}

// The partial path must route through every engine configuration with
// identical results: brute force, the one-pass merge, and the
// streaming pipeline (the spill backend), which brute force reads too.
func TestFindPartialINDsEngineAgreement(t *testing.T) {
	db := dirtyDatabase(t)
	want, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline found nothing")
	}
	// GOMAXPROCS 1 exports one attribute at a time, the paper's
	// sequential export; 4 exports on a four-wide pool.
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		for name, opts := range map[string]PartialOptions{
			"spider-merge":      {Threshold: 0.9, Algorithm: SpiderMerge},
			"streaming":         {Threshold: 0.9, Algorithm: SpiderMerge, Store: NewSpillStore()},
			"brute-force spill": {Threshold: 0.9, Store: NewSpillStore()},
		} {
			got, stats, err := FindPartialINDs(db, opts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %s: %v", procs, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS=%d: %s disagrees with brute force:\ngot  %v\nwant %v", procs, name, got, want)
			}
			if stats.ItemsRead == 0 {
				t.Errorf("GOMAXPROCS=%d: %s: ItemsRead not counted", procs, name)
			}
		}
	}
	if _, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9, Algorithm: SinglePass}); err == nil {
		t.Error("unsupported algorithm must fail")
	}
}

// Regression for the unsound pruning: a dependent with more distinct
// values than the referenced side was dropped by the exact-IND
// cardinality pretest even though it satisfies σ < 1.
func TestFindPartialINDsKeepsCardinalityViolations(t *testing.T) {
	db := NewDatabase("cardinality")
	var parents, children [][]string
	for i := 0; i < 95; i++ {
		parents = append(parents, []string{fmt.Sprintf("%d", i)})
	}
	for i := 0; i < 100; i++ { // 95 covered, 5 beyond the parent domain
		children = append(children, []string{fmt.Sprintf("%d", i)})
	}
	if err := db.AddTable("parent", []string{"id"}, parents); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("child", []string{"pid"}, children); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BruteForce, SpiderMerge} {
		partials, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range partials {
			if p.Dep.String() == "child.pid" && p.Ref.String() == "parent.id" {
				found = true
				if p.Coverage != 0.95 || p.Missing != 5 {
					t.Errorf("%v: partial = %+v", algo, p)
				}
			}
		}
		if !found {
			t.Errorf("%v: cardinality-violating partial IND not found: %v", algo, partials)
		}
	}
}

func TestFindEmbeddedINDs(t *testing.T) {
	db := NewDatabase("embed")
	var entries, xrefs [][]string
	for i := 0; i < 25; i++ {
		code := fmt.Sprintf("%dxy%c", 1+i%9, 'a'+byte(i%26))
		entries = append(entries, []string{code})
		xrefs = append(xrefs, []string{"PDB-" + code})
	}
	if err := db.AddTable("entries", []string{"code"}, entries); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("xrefs", []string{"pdb_ref"}, xrefs); err != nil {
		t.Fatal(err)
	}
	embedded, stats, err := FindEmbeddedINDs(db)
	if err != nil {
		t.Fatal(err)
	}
	// Regression: the counter must be wired through FindEmbedded.
	if stats.ItemsRead == 0 {
		t.Error("FindEmbeddedINDs Stats.ItemsRead = 0, counter not wired through")
	}
	if stats.Candidates == 0 {
		t.Error("FindEmbeddedINDs Stats.Candidates = 0")
	}
	found := false
	for _, e := range embedded {
		if e.Dep.String() == "xrefs.pdb_ref" && e.Transform == "after-dash" && e.Ref.String() == "entries.code" {
			found = true
			want := "xrefs.pdb_ref[after-dash] ⊆ entries.code"
			if e.String() != want {
				t.Errorf("String() = %q, want %q", e.String(), want)
			}
		}
	}
	if !found {
		t.Errorf("embedded IND not found: %v", embedded)
	}
}

func TestFindNaryINDs(t *testing.T) {
	db := NewDatabase("nary")
	var parents, children [][]string
	for i := 0; i < 20; i++ {
		parents = append(parents, []string{fmt.Sprintf("%d", i), fmt.Sprintf("g%d", i%4)})
	}
	for i := 0; i < 12; i++ {
		j := (i * 7) % 20
		children = append(children, []string{fmt.Sprintf("%d", j), fmt.Sprintf("g%d", j%4)})
	}
	if err := db.AddTable("parent", []string{"id", "grp"}, parents); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("child", []string{"pid", "pgrp"}, children); err != nil {
		t.Fatal(err)
	}
	nary, naryStats, err := FindNaryINDs(db, NaryOptions{MaxArity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if naryStats.Candidates == 0 || naryStats.Satisfied != len(nary) || naryStats.Comparisons == 0 {
		t.Errorf("n-ary stats not collected: %+v", naryStats)
	}
	// Pairs are reported in canonical dep-column order.
	want := "(child.pgrp, child.pid) ⊆ (parent.grp, parent.id)"
	found := false
	for _, d := range nary {
		if d.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("binary IND missing; got %v", nary)
	}
	if naryStats.Truncated || naryStats.StoppedAtArity != 0 {
		t.Errorf("unexpected truncation: %+v", naryStats)
	}
	if len(naryStats.CandidatesByArity) == 0 || naryStats.CandidatesByArity[2] == 0 {
		t.Errorf("per-level candidate counts missing: %+v", naryStats)
	}

	// The merge-backed engine must return the same INDs and level counts,
	// on the value-file and spill backends, staging one list at a time
	// (GOMAXPROCS 1) and on a two-wide pool.
	for _, procs := range []int{1, 2} {
		setGOMAXPROCS(t, procs)
		for _, opts := range []NaryOptions{
			{MaxArity: 2, Algorithm: SpiderMerge},
			{MaxArity: 2, Algorithm: SpiderMerge, Store: NewSpillStore()},
		} {
			merged, mergedStats, err := FindNaryINDs(db, opts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %+v: %v", procs, opts, err)
			}
			if !reflect.DeepEqual(merged, nary) {
				t.Errorf("GOMAXPROCS=%d: %+v: merge engine differs:\ngot  %v\nwant %v", procs, opts, merged, nary)
			}
			if !reflect.DeepEqual(mergedStats.SatisfiedByArity, naryStats.SatisfiedByArity) {
				t.Errorf("GOMAXPROCS=%d: %+v: level counts differ: %v vs %v",
					procs, opts, mergedStats.SatisfiedByArity, naryStats.SatisfiedByArity)
			}
			if mergedStats.ItemsRead == 0 {
				t.Errorf("GOMAXPROCS=%d: %+v: merge engine read no items", procs, opts)
			}
		}
	}

	// Unsupported engine selections must be rejected.
	if _, _, err := FindNaryINDs(db, NaryOptions{MaxArity: 2, Algorithm: SinglePass}); err == nil {
		t.Error("unsupported n-ary algorithm must fail")
	}
}

func TestSamplingPretestOption(t *testing.T) {
	db := GenerateUniProt(DatasetConfig{Scale: 0.05})
	plain, err := FindINDs(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := FindINDs(db, Options{SamplingPretest: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.INDs) != len(sampled.INDs) {
		t.Errorf("sampling pretest changed results: %d vs %d", len(plain.INDs), len(sampled.INDs))
	}
	if sampled.Stats.Candidates >= plain.Stats.Candidates {
		t.Errorf("sampling pretest pruned nothing: %d vs %d",
			sampled.Stats.Candidates, plain.Stats.Candidates)
	}
}

// TestFindPartialINDsSketchPrefilter: on the partial path the filter
// prunes by the σ containment estimate; on clean planted data the
// qualifying partial INDs must survive.
func TestFindPartialINDsSketchPrefilter(t *testing.T) {
	db := GenerateUniProt(DatasetConfig{Scale: 0.04})
	baseline, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.9, Algorithm: SpiderMerge})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := FindPartialINDs(db, PartialOptions{
		Threshold: 0.9, Algorithm: SpiderMerge, SketchPrefilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CandidatesPruned == 0 {
		t.Error("pre-filter pruned nothing")
	}
	// The estimate-based filter may in principle drop borderline INDs,
	// but k=128 probes keep anything at or above σ=0.9 coverage with
	// overwhelming probability on this dataset; require identity here.
	if !reflect.DeepEqual(got, baseline) {
		t.Errorf("partial INDs differ: %d vs %d", len(got), len(baseline))
	}
}
