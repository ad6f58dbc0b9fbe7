package ind

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"spider/internal/extsort"
	"spider/internal/sketch"
)

// sketchFromSet builds a sketch directly from an in-memory value set.
func sketchFromSet(cfg sketch.Config, vals []string) *sketch.Sketch {
	b := sketch.NewBuilder(cfg, len(vals))
	for _, v := range vals {
		b.Add(v)
	}
	return b.Finish()
}

// TestSketchPretestNeverDropsTrueIND is the pre-filter's property test:
// on random databases, across deliberately stressy sketch sizes (tiny
// blooms that false-positive often, tiny signatures), sound-mode pruning
// must never remove a satisfied candidate — the brute-force reference
// over the pruned candidate set finds exactly the INDs it finds over the
// full set. Pruned pairs are additionally re-checked against the
// reference individually.
func TestSketchPretestNeverDropsTrueIND(t *testing.T) {
	configs := []sketch.Config{
		{}, // defaults
		{K: 4, BloomBitsPerValue: 2, BloomPartitions: 1}, // overloaded bloom: many false positives
		{K: 1, BloomBitsPerValue: 1, BloomPartitions: 1}, // nearly saturated
		{K: 512, BloomBitsPerValue: 16, BloomPartitions: 6},
	}
	for seed := int64(0); seed < 12; seed++ {
		for ci, cfg := range configs {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
			attrs, sets := randomAttrs(t, rng, dir, 10+rng.Intn(8))
			for _, a := range attrs {
				a.Sketch = sketchFromSet(cfg, sets[a.ID])
			}
			cands := allPairs(attrs)
			ref, err := BruteForce(cands, BruteForceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pruned, st := SketchPretest(cands, SketchPretestOptions{ExactRefutation: true})
			if st.Candidates != len(cands) || st.Pruned != len(cands)-len(pruned) {
				t.Fatalf("seed %d cfg %d: inconsistent stats %+v", seed, ci, st)
			}
			if st.PrunedEstimate != 0 {
				t.Fatalf("seed %d cfg %d: estimate pruning fired in sound mode", seed, ci)
			}
			got, err := BruteForce(pruned, BruteForceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Satisfied, ref.Satisfied) {
				t.Fatalf("seed %d cfg %d: pruning changed results\nfull:   %v\npruned: %v",
					seed, ci, ref.Satisfied, got.Satisfied)
			}
			// Re-check every pruned pair individually: it must be refuted.
			satisfied := make(map[string]bool, len(ref.Satisfied))
			for _, d := range ref.Satisfied {
				satisfied[d.String()] = true
			}
			kept := make(map[*Attribute]map[*Attribute]bool)
			for _, c := range pruned {
				if kept[c.Dep] == nil {
					kept[c.Dep] = make(map[*Attribute]bool)
				}
				kept[c.Dep][c.Ref] = true
			}
			for _, c := range cands {
				if kept[c.Dep][c.Ref] {
					continue
				}
				if satisfied[IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref}.String()] {
					t.Fatalf("seed %d cfg %d: satisfied candidate %v was pruned", seed, ci, c)
				}
			}
		}
	}
}

// TestSketchPretestSkipsUnsketched: candidates missing a sketch on
// either side pass through and are counted.
func TestSketchPretestSkipsUnsketched(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	attrs, sets := randomAttrs(t, rng, dir, 6)
	// Sketch only even attributes.
	for i, a := range attrs {
		if i%2 == 0 {
			a.Sketch = sketchFromSet(sketch.Config{}, sets[a.ID])
		}
	}
	cands := allPairs(attrs)
	out, st := SketchPretest(cands, SketchPretestOptions{ExactRefutation: true})
	if st.Skipped == 0 {
		t.Fatal("expected skipped candidates")
	}
	want := 0
	for _, c := range cands {
		if c.Dep.Sketch == nil || c.Ref.Sketch == nil {
			want++
		}
	}
	if st.Skipped != want {
		t.Fatalf("Skipped = %d, want %d", st.Skipped, want)
	}
	// Every unsketched pair must survive.
	surviving := make(map[string]bool, len(out))
	for _, c := range out {
		surviving[c.String()] = true
	}
	for _, c := range cands {
		if (c.Dep.Sketch == nil || c.Ref.Sketch == nil) && !surviving[c.String()] {
			t.Fatalf("unsketched candidate %v was pruned", c)
		}
	}
}

// TestSketchPretestMinContainment: the approximate cut-off fires on
// low-overlap pairs even without the sound rule.
func TestSketchPretestMinContainment(t *testing.T) {
	mk := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	dep := &Attribute{ID: 0, Distinct: 300, Sketch: sketchFromSet(sketch.Config{}, mk("a", 300))}
	ref := &Attribute{ID: 1, Distinct: 300, Sketch: sketchFromSet(sketch.Config{}, mk("b", 300))}
	cands := []Candidate{{Dep: dep, Ref: ref}}
	out, st := SketchPretest(cands, SketchPretestOptions{MinContainment: 0.5})
	if len(out) != 0 || st.PrunedEstimate != 1 || st.PrunedDefinite != 0 {
		t.Fatalf("disjoint pair survived approximate-only pruning: %+v", st)
	}
	// A full inclusion must survive any cut-off.
	sub := &Attribute{ID: 2, Distinct: 100, Sketch: sketchFromSet(sketch.Config{}, mk("a", 100))}
	all := &Attribute{ID: 3, Distinct: 300, Sketch: sketchFromSet(sketch.Config{}, mk("a", 300))}
	out, st = SketchPretest([]Candidate{{Dep: sub, Ref: all}}, SketchPretestOptions{
		ExactRefutation: true, MinContainment: 1,
	})
	if len(out) != 1 {
		t.Fatalf("satisfied pair pruned: %+v", st)
	}
}

// TestExportPersistsSketches: ExportAttributes with Sketches builds one
// sketch per attribute, persists it next to the value file, and
// LoadSketches reads back the identical structure.
func TestExportPersistsSketches(t *testing.T) {
	db := randomDB(21)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportAttributes(db, attrs, ExportConfig{Dir: dir, Sketches: true}); err != nil {
		t.Fatal(err)
	}
	saved := make([]*sketch.Sketch, len(attrs))
	for i, a := range attrs {
		if a.Sketch == nil {
			t.Fatalf("%s: no sketch built", a.Ref)
		}
		if _, err := os.Stat(a.Path + sketch.FileSuffix); err != nil {
			t.Fatalf("%s: sketch not persisted: %v", a.Ref, err)
		}
		saved[i], a.Sketch = a.Sketch, nil
	}
	if err := LoadSketches(nil, attrs); err != nil {
		t.Fatal(err)
	}
	for i, a := range attrs {
		if !reflect.DeepEqual(a.Sketch, saved[i]) {
			t.Fatalf("%s: loaded sketch differs from built one", a.Ref)
		}
	}
}

// TestStreamingSketchesMatchExport: exports into the spill backend
// build their sketches while staging the frozen runs, and must produce
// bit-identical sketches to the value-file export — in the attributes
// and in the persisted sketch sections.
func TestStreamingSketchesMatchExport(t *testing.T) {
	db := randomDB(22)
	exported, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportAttributes(db, exported, ExportConfig{Dir: t.TempDir(), Sketches: true}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		spilled, err := CollectAttributes(db)
		if err != nil {
			t.Fatal(err)
		}
		sp := extsort.NewSpill()
		err = ExportAttributes(db, spilled, ExportConfig{
			Dataset: sp, Sort: extsort.Config{MaxInMemory: 8, TempDir: t.TempDir()}, Workers: workers, Sketches: true,
		})
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		loaded := make([]*Attribute, len(spilled))
		for i, a := range spilled {
			bare := *a
			bare.Sketch = nil
			loaded[i] = &bare
		}
		err = LoadSketches(sp, loaded)
		sp.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range exported {
			if !reflect.DeepEqual(spilled[i].Sketch, exported[i].Sketch) {
				t.Fatalf("workers=%d: %s: spill sketch differs from export sketch", workers, exported[i].Ref)
			}
			if !reflect.DeepEqual(loaded[i].Sketch, exported[i].Sketch) {
				t.Fatalf("workers=%d: %s: persisted spill sketch differs from export sketch", workers, exported[i].Ref)
			}
		}
	}
}

// TestBuildAttributeSketchesMatchesExport: the direct column scan (the
// no-files fallback) produces the same sketches as the export tee.
func TestBuildAttributeSketchesMatchesExport(t *testing.T) {
	db := randomDB(23)
	exported, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportAttributes(db, exported, ExportConfig{Dir: t.TempDir(), Sketches: true}); err != nil {
		t.Fatal(err)
	}
	scanned, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildAttributeSketches(db, scanned, sketch.Config{}, 2); err != nil {
		t.Fatal(err)
	}
	for i := range exported {
		if !reflect.DeepEqual(scanned[i].Sketch, exported[i].Sketch) {
			t.Fatalf("%s: scanned sketch differs from export sketch", exported[i].Ref)
		}
	}
}

// TestSketchFromRuns: a sketch derived from frozen spill runs equals the
// one built during extraction.
func TestSketchFromRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", rng.Intn(200))
	}
	distinct := make(map[string]struct{})
	for _, v := range vals {
		distinct[v] = struct{}{}
	}
	sorter := extsort.New(extsort.Config{TempDir: t.TempDir(), MaxInMemory: 64})
	want := sketch.NewBuilder(sketch.Config{}, len(distinct))
	for _, v := range vals {
		if err := sorter.Add(v); err != nil {
			t.Fatal(err)
		}
		// Add (not AddHash) so the expected sketch retains the value
		// sample exactly as the runs replay does.
		want.Add(v)
	}
	runs, err := sorter.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer runs.Close()
	got, err := SketchFromRuns(runs, sketch.Config{}, len(distinct))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Finish()) {
		t.Fatal("runs-derived sketch differs from extraction-time sketch")
	}
}
