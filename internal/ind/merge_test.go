package ind

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spider/internal/blockfile"
	"spider/internal/datagen"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
)

// randomAttrs builds a random "database" of nAttrs attributes with value
// sets drawn from a small alphabet (so inclusions actually occur),
// including empty sets, writes the value files into dir, and returns the
// attributes (keyed by file name) plus the in-memory sets for the
// reference checker.
func randomAttrs(t *testing.T, rng *rand.Rand, dir string, nAttrs int) ([]*Attribute, map[int][]string) {
	t.Helper()
	attrs := make([]*Attribute, nAttrs)
	sets := make(map[int][]string, nAttrs)
	for i := 0; i < nAttrs; i++ {
		size := rng.Intn(16) // 0 = empty attribute
		set := make(map[string]struct{}, size)
		for j := 0; j < size; j++ {
			set[fmt.Sprintf("v%02d", rng.Intn(13))] = struct{}{}
		}
		sorted := make([]string, 0, len(set))
		for v := range set {
			sorted = append(sorted, v)
		}
		sort.Strings(sorted)
		key := fmt.Sprintf("%03d.val", i)
		n, err := writeValueFile(filepath.Join(dir, key), sorted)
		if err != nil {
			t.Fatal(err)
		}
		rows := n
		if rng.Intn(2) == 0 {
			rows = n + rng.Intn(4) // non-unique: duplicates among rows
		}
		attrs[i] = &Attribute{
			ID:       i,
			Ref:      relstore.ColumnRef{Table: fmt.Sprintf("t%d", i/4), Column: fmt.Sprintf("c%d", i)},
			Rows:     rows,
			NonNull:  rows,
			Distinct: n,
			Unique:   n > 0 && rows == n,
			Key:      key,
		}
		if n > 0 {
			attrs[i].MinCanonical = sorted[0]
			attrs[i].MaxCanonical = sorted[n-1]
		}
		sets[i] = sorted
	}
	return attrs, sets
}

// allPairs builds every dep ⊆ ref candidate, with no pretests, so empty
// dependent and empty referenced sets are exercised too.
func allPairs(attrs []*Attribute) []Candidate {
	var out []Candidate
	for _, d := range attrs {
		for _, r := range attrs {
			if d != r {
				out = append(out, Candidate{Dep: d, Ref: r})
			}
		}
	}
	return out
}

// checkMergeDifferential is the merge kernel's differential test. Every
// row of the mode × S × backend table runs on one database and must
// return exactly the oracle's output: Reference in exact mode (a miss
// budget of 0), BruteForcePartial at σ ∈ {0.5, 0.8, 1} — same satisfied
// sets, coverages and Missing counts. Backends are files (the
// filesystem dataset holding the value files), the in-memory dataset
// and a read-only snapshot over it.
func checkMergeDifferential(t *testing.T, files store.Dataset, attrs []*Attribute, sets map[int][]string) {
	t.Helper()
	cands := allPairs(attrs)
	mem := memSource(attrs, sets)
	snap := store.NewSnapshot(mem)
	for _, sigma := range []float64{0, 0.5, 0.8, 1} {
		var wantExact *Result
		var wantPartial *PartialResult
		var bfC valfile.ReadCounter
		if sigma == 0 {
			wantExact = Reference(cands, sets)
		} else {
			var err error
			if wantPartial, err = BruteForcePartial(cands, PartialOptions{Store: files, Threshold: sigma, Counter: &bfC}); err != nil {
				t.Fatal(err)
			}
		}
		for _, source := range []string{"files", "memory", "snapshot"} {
			name := fmt.Sprintf("σ=%g/%s", sigma, source)
			var c valfile.ReadCounter
			counter := &c
			opts := SpiderMergeOptions{Store: files, Counter: counter}
			switch source {
			case "memory":
				opts.Store = mem
			case "snapshot":
				opts.Store = snap
			}
			var stats Stats
			var err error
			if sigma == 0 {
				var got *Result
				if got, err = SpiderMerge(cands, opts); err == nil {
					stats = got.Stats
					if !reflect.DeepEqual(got.Satisfied, wantExact.Satisfied) {
						t.Errorf("%s INDs = %v\nwant %v", name, got.Satisfied, wantExact.Satisfied)
					}
					if stats.Candidates != wantExact.Stats.Candidates || stats.Satisfied != wantExact.Stats.Satisfied {
						t.Errorf("%s stats = %d/%d, want %d/%d", name, stats.Candidates, stats.Satisfied,
							wantExact.Stats.Candidates, wantExact.Stats.Satisfied)
					}
				}
			} else {
				var got *PartialResult
				if got, err = PartialSpiderMerge(cands, sigma, opts); err == nil {
					stats = got.Stats
					if !reflect.DeepEqual(got.Satisfied, wantPartial.Satisfied) {
						t.Errorf("%s disagrees with brute force:\ngot  %v\nwant %v", name, got.Satisfied, wantPartial.Satisfied)
					}
					// One pass over every attribute can never read more
					// than the per-candidate rescans.
					if source == "files" && c.Total() > bfC.Total() {
						t.Errorf("%s read %d items, brute force %d", name, c.Total(), bfC.Total())
					}
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stats.ItemsRead != counter.Total() {
				t.Errorf("%s ItemsRead = %d, counter %d", name, stats.ItemsRead, counter.Total())
			}
		}
	}
}

// TestSpiderMergePropertyAgreement is the cross-algorithm property test:
// on randomly generated databases, the merge kernel's full differential
// table holds, and BruteForce and SinglePass agree with it.
func TestSpiderMergePropertyAgreement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ds := store.NewFS(dir)
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(12))
			cands := allPairs(attrs)
			want := Reference(cands, sets)

			var bfC valfile.ReadCounter
			bf, err := BruteForce(cands, BruteForceOptions{Store: ds, Counter: &bfC})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := SinglePass(cands, SinglePassOptions{Store: ds})
			if err != nil {
				t.Fatal(err)
			}
			var smC valfile.ReadCounter
			sm, err := SpiderMerge(cands, SpiderMergeOptions{Store: ds, Counter: &smC})
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*Result{"brute-force": bf, "single-pass": sp, "spider-merge": sm} {
				if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
					t.Errorf("%s INDs = %v\nwant %v", name, got.Satisfied, want.Satisfied)
				}
			}
			// The heap merge reads each value file at most once, so it can
			// never read more items than one brute-force sweep over all
			// candidate pairs.
			if smC.Total() > bfC.Total() {
				t.Errorf("spider-merge read %d items, brute force %d", smC.Total(), bfC.Total())
			}
			checkMergeDifferential(t, ds, attrs, sets)
		})
	}
}

// TestPartialSpiderMergeMatchesBruteForce runs the same differential
// table over the dirtier, smaller databases the partial engine was
// first pinned on.
func TestPartialSpiderMergeMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ds := store.NewFS(dir)
			attrs, sets := randomAttrs(t, rng, dir, 3+rng.Intn(10))
			checkMergeDifferential(t, ds, attrs, sets)
		})
	}
}

// TestSpiderMergeEmptyCandidates covers the degenerate run.
func TestSpiderMergeEmptyCandidates(t *testing.T) {
	res, err := SpiderMerge(nil, SpiderMergeOptions{Store: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 0 || res.Stats.Candidates != 0 {
		t.Errorf("empty run = %+v", res.Stats)
	}
}

// TestSpiderMergeUnexported mirrors the brute-force/single-pass guard:
// attributes without exported files must fail through the file source.
func TestSpiderMergeUnexported(t *testing.T) {
	a := &Attribute{ID: 0, Ref: relstore.ColumnRef{Table: "t", Column: "a"}, NonNull: 1, Distinct: 1}
	b := &Attribute{ID: 1, Ref: relstore.ColumnRef{Table: "t", Column: "b"}, NonNull: 1, Distinct: 1}
	if _, err := SpiderMerge([]Candidate{{Dep: a, Ref: b}}, SpiderMergeOptions{Store: store.NewFS(t.TempDir())}); err == nil {
		t.Error("spider merge on unexported attributes must fail")
	}
}

// TestSpiderMergeClosesEarly asserts the early-close optimisation: once
// every candidate is decided, remaining values are not read. A huge
// referenced attribute whose only dependent refutes on the first value
// must not be read to the end.
func TestSpiderMergeClosesEarly(t *testing.T) {
	dir := t.TempDir()
	ds := store.NewFS(dir)
	big := make([]string, 1000)
	for i := range big {
		big[i] = fmt.Sprintf("x%04d", i)
	}
	depVals := []string{"a"} // sorts before every "x...": refuted at once
	write := func(name string, vals []string, id int) *Attribute {
		if _, err := writeValueFile(filepath.Join(dir, name), vals); err != nil {
			t.Fatal(err)
		}
		return &Attribute{
			ID: id, Ref: relstore.ColumnRef{Table: "t", Column: name},
			Rows: len(vals), NonNull: len(vals), Distinct: len(vals), Unique: true, Key: name,
		}
	}
	dep := write("dep", depVals, 0)
	ref := write("ref", big, 1)
	var c valfile.ReadCounter
	res, err := SpiderMerge([]Candidate{{Dep: dep, Ref: ref}}, SpiderMergeOptions{Store: ds, Counter: &c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 0 {
		t.Errorf("candidate must be refuted: %v", res.Satisfied)
	}
	if c.Total() > 10 {
		t.Errorf("early close failed: read %d items from a refuted candidate", c.Total())
	}
}

// TestSpiderMergeStatsGolden pins the merge's work counters —
// items and bytes read, comparisons, files opened, peak open files — on
// a UniProt-shaped fixture, exact and at
// σ = 0.8. The figures are the paper's cost metrics (Figure 5, Sec 4.2);
// a change to the kernel must leave them exactly where they are.
func TestSpiderMergeStatsGolden(t *testing.T) {
	db := datagen.UniProt(datagen.UniProtConfig{Seed: 1, Scale: 0.2})
	type golden struct {
		cands, sat                      int
		items, bytes, cmps              int64
		opened, maxOpen                 int
		partialCands, partialSat        int
		partialItems, partialCmps       int64
		partialOpened, partialMaxOpened int
	}
	want := golden{
		1716, 22, 5191, 70645, 3742, 78, 78,
		1759, 23, 5502, 17551, 78, 78,
	}
	dir := t.TempDir()
	ds := store.NewFS(dir)
	attrs, err := Prepare(db, ExportConfig{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	res, err := SpiderMerge(cands, SpiderMergeOptions{Counter: &valfile.ReadCounter{}, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	got := golden{cands: st.Candidates, sat: st.Satisfied, items: st.ItemsRead, bytes: st.BytesRead,
		cmps: st.Comparisons, opened: st.FilesOpened, maxOpen: st.MaxOpenFiles}

	pcands, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.8})
	pres, err := PartialSpiderMerge(pcands, 0.8, SpiderMergeOptions{Counter: &valfile.ReadCounter{}, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	pst := pres.Stats
	got.partialCands, got.partialSat, got.partialItems = pst.Candidates, pst.Satisfied, pst.ItemsRead
	got.partialCmps, got.partialOpened, got.partialMaxOpened = pst.Comparisons, pst.FilesOpened, pst.MaxOpenFiles
	if pst.BytesRead != want.bytes {
		t.Errorf("partial BytesRead = %d, want %d", pst.BytesRead, want.bytes)
	}
	if got != want {
		t.Errorf("stats drifted:\ngot  %+v\nwant %+v", got, want)
	}
}

// errInjected is the fault faultyDataset's cursors report.
var errInjected = errors.New("injected cursor fault")

// faultyDataset wraps a dataset and fails the failAt-th item delivered
// by any of its cursors, counting cursor opens and closes.
type faultyDataset struct {
	store.Dataset
	failAt        int64
	items         atomic.Int64
	opens, closes atomic.Int64
}

func (d *faultyDataset) Open(key string, counter *valfile.ReadCounter) (store.Cursor, error) {
	cur, err := d.Dataset.Open(key, counter)
	if err != nil {
		return nil, err
	}
	d.opens.Add(1)
	return &faultyCursor{Cursor: cur, ds: d}, nil
}

type faultyCursor struct {
	store.Cursor
	ds  *faultyDataset
	err error
}

func (c *faultyCursor) Next() (string, bool) {
	if c.err != nil {
		return "", false
	}
	if c.ds.items.Add(1) == c.ds.failAt {
		c.err = errInjected
		return "", false
	}
	return c.Cursor.Next()
}

func (c *faultyCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.Cursor.Err()
}

func (c *faultyCursor) Close() error {
	c.ds.closes.Add(1)
	return c.Cursor.Close()
}

// TestMergeCursorErrorPath injects a cursor fault mid-merge over the
// memory and snapshot backends: exact and partial runs must all return
// the fault, close every cursor they opened and leave no goroutine
// behind.
func TestMergeCursorErrorPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	attrs, sets := randomAttrs(t, rng, t.TempDir(), 12)
	cands := allPairs(attrs)
	for _, backend := range []string{"mem", "snapshot"} {
		for _, failAt := range []int64{1, 25} {
			for _, sigma := range []float64{0, 0.8} {
				name := fmt.Sprintf("%s/fail@%d/σ=%g", backend, failAt, sigma)
				before := runtime.NumGoroutine()
				var ds *faultyDataset
				err := func() error {
					mem := memSource(attrs, sets)
					var base store.Dataset = mem
					if backend == "snapshot" {
						base = store.NewSnapshot(mem)
					}
					ds = &faultyDataset{Dataset: base, failAt: failAt}
					opts := SpiderMergeOptions{Store: ds}
					if sigma == 0 {
						_, err := SpiderMerge(cands, opts)
						return err
					}
					_, err := PartialSpiderMerge(cands, sigma, opts)
					return err
				}()
				if !errors.Is(err, errInjected) {
					t.Errorf("%s: err = %v, want the injected fault", name, err)
				}
				if opens, closes := ds.opens.Load(), ds.closes.Load(); opens == 0 || opens != closes {
					t.Errorf("%s: %d cursors opened, %d closed", name, opens, closes)
				}
				// Give exiting goroutines a moment to retire.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if after := runtime.NumGoroutine(); after > before {
					t.Errorf("%s: %d goroutines before, %d after", name, before, after)
				}
			}
		}
	}
}

// partialAttr exports one hand-built value set and returns its attribute.
func partialAttr(t *testing.T, dir string, id int, name string, vals []string) *Attribute {
	t.Helper()
	key := fmt.Sprintf("p%03d.val", id)
	if _, err := writeValueFile(filepath.Join(dir, key), vals); err != nil {
		t.Fatal(err)
	}
	a := &Attribute{
		ID:       id,
		Ref:      relstore.ColumnRef{Table: "t", Column: name},
		Rows:     len(vals),
		NonNull:  len(vals),
		Distinct: len(vals),
		Unique:   true,
		Key:      key,
	}
	if len(vals) > 0 {
		a.MinCanonical = vals[0]
		a.MaxCanonical = vals[len(vals)-1]
	}
	return a
}

// TestPartialMergeIntegralThreshold pins the boundary where σ·|s(a)| is
// exactly integral: 10 dependent values at σ = 0.9 tolerate exactly one
// miss — a second miss refutes.
func TestPartialMergeIntegralThreshold(t *testing.T) {
	dir := t.TempDir()
	ds := store.NewFS(dir)
	ref := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		ref = append(ref, fmt.Sprintf("r%02d", i))
	}
	mk := func(id int, name string, miss int) *Attribute {
		vals := append([]string(nil), ref[:10-miss]...)
		for i := 0; i < miss; i++ {
			vals = append(vals, fmt.Sprintf("x%02d", i)) // dangling, sorts after r*
		}
		return partialAttr(t, dir, id, name, vals)
	}
	refAttr := partialAttr(t, dir, 0, "ref", ref)
	oneMiss := mk(1, "one", 1)
	twoMiss := mk(2, "two", 2)
	cands := []Candidate{
		{Dep: oneMiss, Ref: refAttr},
		{Dep: twoMiss, Ref: refAttr},
	}
	want, err := BruteForcePartial(cands, PartialOptions{Store: ds, Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Satisfied) != 1 || want.Satisfied[0].Dep.Column != "one" ||
		want.Satisfied[0].Missing != 1 || want.Satisfied[0].Coverage != 0.9 {
		t.Fatalf("brute-force baseline unexpected: %+v", want.Satisfied)
	}
	got, err := PartialSpiderMerge(cands, 0.9, SpiderMergeOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
		t.Errorf("%+v, want %+v", got.Satisfied, want.Satisfied)
	}
}

// TestPartialMergeEmptyDependent pins the degenerate case: an empty
// dependent set is trivially (fully) included at every threshold.
func TestPartialMergeEmptyDependent(t *testing.T) {
	dir := t.TempDir()
	ds := store.NewFS(dir)
	empty := partialAttr(t, dir, 0, "empty", nil)
	ref := partialAttr(t, dir, 1, "ref", []string{"a", "b"})
	cands := []Candidate{{Dep: empty, Ref: ref}}
	for _, sigma := range []float64{0.5, 1.0} {
		want, err := BruteForcePartial(cands, PartialOptions{Store: ds, Threshold: sigma})
		if err != nil {
			t.Fatal(err)
		}
		got, err := PartialSpiderMerge(cands, sigma, SpiderMergeOptions{Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Fatalf("σ=%g: %+v, want %+v", sigma, got.Satisfied, want.Satisfied)
		}
		if len(got.Satisfied) != 1 || got.Satisfied[0].Coverage != 1 || got.Satisfied[0].Missing != 0 {
			t.Errorf("σ=%g: empty dependent must be trivially included: %+v", sigma, got.Satisfied)
		}
	}
}

// TestPartialMergeRejectsBadThreshold mirrors the brute-force validation.
func TestPartialMergeRejectsBadThreshold(t *testing.T) {
	for _, sigma := range []float64{0, -0.5, 1.5} {
		if _, err := PartialSpiderMerge(nil, sigma, SpiderMergeOptions{Store: store.NewMem()}); err == nil {
			t.Errorf("PartialSpiderMerge must reject threshold %v", sigma)
		}
	}
}

// TestPartialMergeCorruptFile mirrors the brute-force error path.
func TestPartialMergeCorruptFile(t *testing.T) {
	db := buildDB(t)
	dir := t.TempDir()
	ds := store.NewFS(dir)
	attrs, err := Prepare(db, ExportConfig{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.5})
	for _, a := range attrs {
		if err := writeCorrupt(filepath.Join(dir, a.Key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PartialSpiderMerge(cands, 0.5, SpiderMergeOptions{Store: ds}); !isMidStreamCorruption(err) {
		t.Errorf("partial merge must report the corrupt block, got %v", err)
	}
}

// TestPartialThresholdCardinalityBound pins the σ-aware candidate
// pretest: a dependent with more distinct values than the referenced
// side survives generation at σ < 1 (it can still reach σ-coverage) and
// the resulting partial IND is found; at σ = 1 the bound degenerates to
// the exact-IND prune.
func TestPartialThresholdCardinalityBound(t *testing.T) {
	dir := t.TempDir()
	ds := store.NewFS(dir)
	// 100 distinct dependent values, 95 of them in the referenced set:
	// coverage 0.95 ≥ σ = 0.9 even though 100 > 95.
	dep := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		dep = append(dep, fmt.Sprintf("v%03d", i))
	}
	depAttr := partialAttr(t, dir, 0, "dep", dep)
	refAttr := partialAttr(t, dir, 1, "ref", dep[:95])
	attrs := []*Attribute{depAttr, refAttr}

	exact, _ := GenerateCandidates(attrs, GenOptions{})
	for _, c := range exact {
		if c.Dep == depAttr {
			t.Fatalf("exact pretest must prune %s", c)
		}
	}
	sigmaOne, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 1})
	for _, c := range sigmaOne {
		if c.Dep == depAttr {
			t.Fatalf("σ=1 pretest must degenerate to the exact prune, kept %s", c)
		}
	}
	partial, st := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.9})
	var cand *Candidate
	for i := range partial {
		if partial[i].Dep == depAttr {
			cand = &partial[i]
		}
	}
	if cand == nil {
		t.Fatalf("σ=0.9 pretest wrongly pruned the viable candidate (stats %+v)", st)
	}
	res, err := PartialSpiderMerge([]Candidate{*cand}, 0.9, SpiderMergeOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 || res.Satisfied[0].Missing != 5 || res.Satisfied[0].Coverage != 0.95 {
		t.Errorf("partial IND not found: %+v", res.Satisfied)
	}
}

// TestSpiderMergeAllocsPerBlock pins the merge's allocation shape over
// block files: a SpiderMerge that reads every value of three
// block-format sets allocates in proportion to the blocks it reads, not
// to the values.
func TestSpiderMergeAllocsPerBlock(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		dir := t.TempDir()
		ds := store.NewFS(dir)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("value/%08d", i)
		}
		attrs := make([]*Attribute, 3)
		blocks := 0
		for i := range attrs {
			attrs[i] = &Attribute{ID: i, Distinct: n, NonNull: n, Rows: n}
			if _, _, err := stageSorted(ds, attrs[i], fmt.Sprintf("a%d.val", i), vals, int64(n), nil, nil); err != nil {
				t.Fatal(err)
			}
			r, err := blockfile.Open(filepath.Join(dir, attrs[i].Key))
			if err != nil {
				t.Fatal(err)
			}
			blocks += r.NumBlocks()
			r.Close()
		}
		cands := allPairs(attrs)
		var read int64
		allocs := testing.AllocsPerRun(3, func() {
			var counter valfile.ReadCounter
			res, err := SpiderMerge(cands, SpiderMergeOptions{Store: ds, Counter: &counter})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Satisfied) != len(cands) {
				t.Fatalf("%d of %d candidates satisfied", len(res.Satisfied), len(cands))
			}
			read = counter.Total()
		})
		if read != int64(3*n) {
			t.Fatalf("merge read %d items, want %d", read, 3*n)
		}
		if limit := float64(allocsPerBlock*blocks + 120); allocs > limit {
			t.Errorf("%d values in %d blocks: %.0f allocations per merge, want at most %.0f", read, blocks, allocs, limit)
		}
	}
}
