package ind

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spider/internal/blockfile"
	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/value"
)

// --- Partial INDs (paper Sec 7 future work) ----------------------------

// dirtyDB plants a foreign key with a controlled fraction of dangling
// values: 90 of 100 child values reference parents, 10 dangle.
func dirtyDB(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("dirty")
	parent := db.MustCreateTable("parent", []relstore.Column{{Name: "id", Kind: value.Int}})
	for i := 0; i < 200; i++ {
		parent.MustInsert(value.NewInt(int64(i)))
	}
	child := db.MustCreateTable("child", []relstore.Column{{Name: "pid", Kind: value.Int}})
	for i := 0; i < 90; i++ {
		child.MustInsert(value.NewInt(int64(i))) // clean references
	}
	for i := 0; i < 10; i++ {
		child.MustInsert(value.NewInt(int64(100000 + i))) // dangling
	}
	return db
}

func findCandidate(t testing.TB, cands []Candidate, dep, ref string) Candidate {
	t.Helper()
	for _, c := range cands {
		if c.Dep.Ref.String() == dep && c.Ref.Ref.String() == ref {
			return c
		}
	}
	t.Fatalf("candidate %s ⊆ %s not generated", dep, ref)
	return Candidate{}
}

func TestPartialINDThresholds(t *testing.T) {
	db := dirtyDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	c := findCandidate(t, cands, "child.pid", "parent.id")

	// Exact IND must fail (10% dirty)...
	exact, err := BruteForce([]Candidate{c}, BruteForceOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Satisfied) != 0 {
		t.Fatal("exact IND must be refuted on dirty data")
	}
	// ...but the partial IND holds at σ = 0.9 and below.
	for _, tc := range []struct {
		sigma float64
		want  bool
	}{
		{1.0, false},
		{0.95, false},
		{0.90, true},
		{0.50, true},
	} {
		res, err := BruteForcePartial([]Candidate{c}, PartialOptions{Store: ds, Threshold: tc.sigma})
		if err != nil {
			t.Fatal(err)
		}
		got := len(res.Satisfied) == 1
		if got != tc.want {
			t.Errorf("σ=%.2f: satisfied=%v, want %v", tc.sigma, got, tc.want)
		}
		if got {
			m := res.Satisfied[0]
			if m.Coverage < 0.89 || m.Coverage > 0.91 {
				t.Errorf("σ=%.2f: coverage = %v, want 0.90", tc.sigma, m.Coverage)
			}
			if m.Missing != 10 {
				t.Errorf("σ=%.2f: missing = %d, want 10", tc.sigma, m.Missing)
			}
		}
	}
}

func TestPartialRejectsBadThreshold(t *testing.T) {
	for _, sigma := range []float64{0, -0.5, 1.5} {
		if _, err := BruteForcePartial(nil, PartialOptions{Store: store.NewMem(), Threshold: sigma}); err == nil {
			t.Errorf("threshold %v must be rejected", sigma)
		}
	}
}

// At σ = 1 the partial test must agree exactly with Algorithm 1.
func TestPartialSigmaOneMatchesExact(t *testing.T) {
	db := randomDB(5)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	exact, err := BruteForce(cands, BruteForceOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := BruteForcePartial(cands, PartialOptions{Store: ds, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []IND
	for _, m := range partial.Satisfied {
		got = append(got, m.IND)
		if m.Coverage != 1 {
			t.Errorf("σ=1 match with coverage %v", m.Coverage)
		}
	}
	if !reflect.DeepEqual(got, exact.Satisfied) {
		t.Errorf("σ=1 differs from exact:\npartial %v\nexact  %v", got, exact.Satisfied)
	}
}

// The early stop must never change the verdict: compare against a naive
// full-scan coverage computation on random data.
func TestPartialEarlyStopSound(t *testing.T) {
	dir := t.TempDir()
	ds := store.NewFS(dir)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		depVals := randomSortedSet(rng, 40, 60)
		refVals := randomSortedSet(rng, 40, 60)
		depKey := fmt.Sprintf("d%d.val", trial)
		refKey := fmt.Sprintf("r%d.val", trial)
		if _, err := writeValueFile(filepath.Join(dir, depKey), depVals); err != nil {
			t.Fatal(err)
		}
		if _, err := writeValueFile(filepath.Join(dir, refKey), refVals); err != nil {
			t.Fatal(err)
		}
		dep := &Attribute{ID: 0, Ref: relstore.ColumnRef{Table: "t", Column: "d"},
			Distinct: len(depVals), NonNull: len(depVals), Key: depKey}
		ref := &Attribute{ID: 1, Ref: relstore.ColumnRef{Table: "t", Column: "r"},
			Distinct: len(refVals), NonNull: len(refVals), Key: refKey, Unique: true}
		c := Candidate{Dep: dep, Ref: ref}

		refSet := map[string]bool{}
		for _, v := range refVals {
			refSet[v] = true
		}
		matched := 0
		for _, v := range depVals {
			if refSet[v] {
				matched++
			}
		}
		trueCoverage := 1.0
		if len(depVals) > 0 {
			trueCoverage = float64(matched) / float64(len(depVals))
		}
		for _, sigma := range []float64{0.3, 0.6, 0.9, 1.0} {
			res, err := BruteForcePartial([]Candidate{c}, PartialOptions{Store: ds, Threshold: sigma})
			if err != nil {
				t.Fatal(err)
			}
			want := trueCoverage+1e-12 >= sigma
			got := len(res.Satisfied) == 1
			if got != want {
				t.Errorf("trial %d σ=%.1f: got %v, want %v (coverage %.3f)",
					trial, sigma, got, want, trueCoverage)
			}
			if got && res.Satisfied[0].Coverage != trueCoverage {
				t.Errorf("trial %d σ=%.1f: coverage %v, want %v",
					trial, sigma, res.Satisfied[0].Coverage, trueCoverage)
			}
		}
	}
}

func randomSortedSet(rng *rand.Rand, pool, n int) []string {
	set := map[string]bool{}
	for i := 0; i < n; i++ {
		set[fmt.Sprintf("v%03d", rng.Intn(pool))] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- Sampling pretest (paper Sec 4.1 future work) -----------------------

func TestSamplingPretestSound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := randomDB(seed)
		attrs, ds := prepare(t, db)
		cands, _ := GenerateCandidates(attrs, GenOptions{})
		kept, st, err := SamplingPretest(db, cands, SamplingOptions{SampleSize: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if st.Pruned != len(cands)-len(kept) {
			t.Errorf("seed %d: Pruned = %d, removed %d", seed, st.Pruned, len(cands)-len(kept))
		}
		full, err := BruteForce(cands, BruteForceOptions{Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := BruteForce(kept, BruteForceOptions{Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full.Satisfied, reduced.Satisfied) {
			t.Errorf("seed %d: sampling pretest changed results", seed)
		}
	}
}

func TestSamplingPretestPrunes(t *testing.T) {
	db := buildDB(t)
	attrs, _ := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	kept, st, err := SamplingPretest(db, cands, SamplingOptions{SampleSize: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) >= len(cands) {
		t.Errorf("pretest pruned nothing (%d of %d kept)", len(kept), len(cands))
	}
	if st.Probes == 0 {
		t.Error("probes not counted")
	}
}

func TestSamplingDeterministic(t *testing.T) {
	db := buildDB(t)
	attrs, _ := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	a, _, err := SamplingPretest(db, cands, SamplingOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SamplingPretest(db, cands, SamplingOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give the same prune")
	}
}

// --- Embedded-value INDs (paper Sec 7 future work) -----------------------

func TestFindEmbeddedPDBCodes(t *testing.T) {
	db := relstore.NewDatabase("embed")
	entries := db.MustCreateTable("entries", []relstore.Column{{Name: "code", Kind: value.String}})
	for i := 0; i < 30; i++ {
		entries.MustInsert(value.NewString(fmt.Sprintf("%dabc%c", 1+i%9, 'a'+byte(i%26))))
	}
	xrefs := db.MustCreateTable("xrefs", []relstore.Column{{Name: "pdb_ref", Kind: value.String}})
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		code := fmt.Sprintf("%dabc%c", 1+i%9, 'a'+byte(i%26))
		xrefs.MustInsert(value.NewString("PDB-" + code)) // the paper's example
		seen[code] = true
	}
	attrs, ds := prepare(t, db)
	// The exact IND does not hold...
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	exact, err := BruteForce(cands, BruteForceOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range exact.Satisfied {
		if d.Dep.Table == "xrefs" {
			t.Fatalf("exact IND unexpectedly holds: %s", d)
		}
	}
	// ...but the after-dash embedded IND does.
	res, err := FindEmbedded(db, attrs, EmbeddedOptions{Scratch: ds, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Satisfied {
		if e.Dep.String() == "xrefs.pdb_ref" && e.Transform == "after-dash" && e.Ref.String() == "entries.code" {
			found = true
		}
	}
	if !found {
		t.Errorf("embedded IND not found; got %v", res.Satisfied)
	}
	if res.DerivedAttrs == 0 || res.Stats.Candidates == 0 {
		t.Errorf("stats not collected: %+v", res.Stats)
	}
}

func TestFindEmbeddedRequiresDir(t *testing.T) {
	ds := store.NewMem()
	for _, opts := range []EmbeddedOptions{{}, {Store: ds}, {Scratch: ds}} {
		if _, err := FindEmbedded(nil, nil, opts); err == nil {
			t.Errorf("%+v: a missing dataset must fail", opts)
		}
	}
}

func TestStandardTransforms(t *testing.T) {
	byName := map[string]Transform{}
	for _, tr := range StandardTransforms() {
		byName[tr.Name] = tr
	}
	if got := byName["after-dash"].Apply("PDB-144f"); got != "144f" {
		t.Errorf("after-dash = %q", got)
	}
	if got := byName["after-dash"].Apply("nodash"); got != "" {
		t.Errorf("after-dash without dash = %q", got)
	}
	if got := byName["before-dash"].Apply("PDB-144f"); got != "PDB" {
		t.Errorf("before-dash = %q", got)
	}
	if got := byName["lowercase"].Apply("AbC"); got != "abc" {
		t.Errorf("lowercase = %q", got)
	}
	if got := byName["lowercase"].Apply("abc"); got != "" {
		t.Errorf("lowercase identity must be dropped, got %q", got)
	}
}

// Corrupt value files must surface as errors, not panics or wrong results.
func TestCorruptFileFailsCleanly(t *testing.T) {
	db := buildDB(t)
	dir := t.TempDir()
	ds := store.NewFS(dir)
	attrs, err := Prepare(db, ExportConfig{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	// Replace every exported file with one that opens cleanly and fails
	// partway through, so the error surfaces mid-stream, not at Open.
	for _, a := range attrs {
		if err := writeCorrupt(filepath.Join(dir, a.Key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BruteForce(cands, BruteForceOptions{Store: ds}); !isMidStreamCorruption(err) {
		t.Errorf("brute force must report the corrupt block, got %v", err)
	}
	if _, err := SinglePass(cands, SinglePassOptions{Store: ds}); !isMidStreamCorruption(err) {
		t.Errorf("single pass must report the corrupt block, got %v", err)
	}
	if _, err := BruteForcePartial(cands, PartialOptions{Store: ds, Threshold: 0.5}); !isMidStreamCorruption(err) {
		t.Errorf("partial must report the corrupt block, got %v", err)
	}
}

// writeCorrupt replaces path with a block file that opens cleanly and
// then fails: it holds several blocks, and one byte of the second
// block's payload is flipped, so a cursor delivers the first block's
// values before Err reports the checksum mismatch. Every file gets the
// same values, so each dependent set lies in each referenced one and an
// engine reads on until it reaches the damage.
func writeCorrupt(path string) error {
	w, err := store.CreateFile(path)
	if err != nil {
		return err
	}
	for i := 0; i < 5000; i++ {
		if err := w.Append(fmt.Sprintf("v%05d", i)); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The documented layout: a 16-byte file header, then the blocks,
	// each a 12-byte block header that starts with the payload length.
	const fileHeader, blockHeader = 16, 12
	second := fileHeader + blockHeader + int(binary.LittleEndian.Uint32(b[fileHeader:]))
	b[second+blockHeader] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	// Check the fixture: values first, then the corruption error.
	c, err := store.OpenFile(path, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	n := 0
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		n++
	}
	if n == 0 || !isMidStreamCorruption(c.Err()) {
		return fmt.Errorf("%s: %d values before error %v; want some, then a corrupt block", path, n, c.Err())
	}
	return nil
}

// isMidStreamCorruption reports a damaged block file, as opposed to a
// file in another encoding, which already fails at Open.
func isMidStreamCorruption(err error) bool {
	return errors.Is(err, blockfile.ErrCorrupt) && !errors.Is(err, blockfile.ErrNoMagic)
}

// The merge-front embedded engine must agree byte-for-byte with the
// per-candidate Algorithm 1 reference — same satisfied set in the same
// canonical order — on random databases. Derived
// sets ride the shared heap merge as synthetic attributes, so this pins
// the transform-tagged identity encoding (two transforms of one column
// must never conflate) as well as the verdicts.
// embedRandomDB plants embedded structure on top of random content:
// entries.code holds bare codes, xrefs.pdb_ref the same codes behind a
// "PDB-" prefix (after-dash holds), tags.t the codes with a random
// suffix after a dash (before-dash holds), and shouty.s uppercased codes
// (lowercase holds); decoy columns reuse the shapes over a disjoint code
// pool so refuted candidates exist too.
func embedRandomDB(seed int64) *relstore.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDatabase(fmt.Sprintf("embed%d", seed))
	codes := make([]string, 12+rng.Intn(10))
	for i := range codes {
		codes[i] = fmt.Sprintf("c%d%c", rng.Intn(90), 'a'+byte(rng.Intn(26)))
	}
	entries := db.MustCreateTable("entries", []relstore.Column{{Name: "code", Kind: value.String}})
	for _, c := range codes {
		entries.MustInsert(value.NewString(c))
	}
	xrefs := db.MustCreateTable("xrefs", []relstore.Column{
		{Name: "pdb_ref", Kind: value.String},
		{Name: "t", Kind: value.String},
		{Name: "s", Kind: value.String},
		{Name: "decoy", Kind: value.String},
	})
	for i := 0; i < 10+rng.Intn(15); i++ {
		c := codes[rng.Intn(len(codes))]
		xrefs.MustInsert(
			value.NewString("PDB-"+c),
			value.NewString(fmt.Sprintf("%s-v%d", c, rng.Intn(4))),
			value.NewString(strings.ToUpper(c)),
			value.NewString("ZZ-"+fmt.Sprintf("q%d", rng.Intn(50))),
		)
	}
	return db
}

func TestFindEmbeddedMergeMatchesAlgorithmOne(t *testing.T) {
	sawSatisfied := false
	for seed := int64(0); seed < 8; seed++ {
		db := randomDB(seed)
		if seed%2 == 0 {
			db = embedRandomDB(seed)
		}
		attrs, ds := prepare(t, db)
		want, err := FindEmbedded(db, attrs, EmbeddedOptions{Scratch: ds, Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Satisfied) > 0 {
			sawSatisfied = true
		}
		got, err := FindEmbedded(db, attrs, EmbeddedOptions{
			Scratch:   ds,
			Store:     ds,
			Algorithm: EmbeddedMerge,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Errorf("seed %d: engines disagree:\nmerge %v\nref   %v",
				seed, got.Satisfied, want.Satisfied)
		}
		if got.DerivedAttrs != want.DerivedAttrs {
			t.Errorf("seed %d: DerivedAttrs %d vs %d",
				seed, got.DerivedAttrs, want.DerivedAttrs)
		}
		if got.Stats.Candidates != want.Stats.Candidates {
			t.Errorf("seed %d: Candidates %d vs %d",
				seed, got.Stats.Candidates, want.Stats.Candidates)
		}
	}
	if !sawSatisfied {
		t.Error("property test is vacuous: no seed produced an embedded IND")
	}
}
