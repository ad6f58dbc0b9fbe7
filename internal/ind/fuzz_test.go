package ind

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// Fuzz-style protocol test: the single-pass algorithm (and the blocked
// variant) must agree with the set-based oracle on arbitrary candidate
// topologies — many deps sharing refs, attributes acting as both dep and
// ref, empty files, single-value files, heavy overlap. This exercises
// the monitor protocol (Algorithms 2-3) far beyond the schema-shaped
// datasets.
func TestSinglePassFuzzTopologies(t *testing.T) {
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dir := t.TempDir()

		// Random universe of attributes with random sorted value sets.
		nAttrs := 2 + rng.Intn(8)
		attrs := make([]*Attribute, nAttrs)
		sets := make(map[int][]string, nAttrs)
		for i := 0; i < nAttrs; i++ {
			var vals []string
			switch rng.Intn(5) {
			case 0: // empty
			case 1: // singleton
				vals = []string{fmt.Sprintf("v%02d", rng.Intn(20))}
			default:
				vals = randomSortedSet(rng, 12+rng.Intn(20), 1+rng.Intn(25))
			}
			path := filepath.Join(dir, fmt.Sprintf("a%02d.val", i))
			if _, err := valfile.WriteAll(path, vals); err != nil {
				t.Fatal(err)
			}
			max := ""
			if len(vals) > 0 {
				max = vals[len(vals)-1]
			}
			attrs[i] = &Attribute{
				ID:           i,
				Ref:          relstore.ColumnRef{Table: "t", Column: fmt.Sprintf("c%02d", i)},
				NonNull:      len(vals),
				Distinct:     len(vals),
				Unique:       true,
				MaxCanonical: max,
				Path:         path,
			}
			sets[i] = vals
		}

		// Random candidate topology (not necessarily pretested-consistent:
		// the algorithms must be correct regardless).
		var cands []Candidate
		for d := 0; d < nAttrs; d++ {
			for r := 0; r < nAttrs; r++ {
				if d == r || rng.Intn(3) == 0 {
					continue
				}
				cands = append(cands, Candidate{Dep: attrs[d], Ref: attrs[r]})
			}
		}
		if len(cands) == 0 {
			continue
		}

		want := Reference(cands, sets).Satisfied
		sp, err := SinglePass(cands, SinglePassOptions{})
		if err != nil {
			t.Fatalf("trial %d: single pass: %v", trial, err)
		}
		if !reflect.DeepEqual(sp.Satisfied, want) {
			t.Fatalf("trial %d: single pass differs:\ngot  %v\nwant %v",
				trial, indStrings(sp.Satisfied), indStrings(want))
		}
		bf, err := BruteForce(cands, BruteForceOptions{})
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		if !reflect.DeepEqual(bf.Satisfied, want) {
			t.Fatalf("trial %d: brute force differs", trial)
		}
		blocked, err := SinglePassBlocked(cands, BlockedOptions{
			DepBlock: 1 + rng.Intn(3), RefBlock: 1 + rng.Intn(3),
		})
		if err != nil {
			t.Fatalf("trial %d: blocked: %v", trial, err)
		}
		if !reflect.DeepEqual(blocked.Satisfied, want) {
			t.Fatalf("trial %d: blocked single pass differs", trial)
		}
	}
}

// FuzzAlgorithmOne feeds arbitrary comma-separated value lists through
// the paper's Algorithm 1 and checks the verdict against a hash-set
// subset oracle. Run with go test -fuzz=FuzzAlgorithmOne; the seed corpus
// covers the merge's edge shapes (empty sets, prefixes, early stops).
func FuzzAlgorithmOne(f *testing.F) {
	f.Add("a,b,c", "a,b,c,d")
	f.Add("", "a")
	f.Add("a,aa,aaa", "a,aa")
	f.Add("z", "a,b")
	f.Add("k999998", "k999997,k999998,k999999")
	f.Fuzz(func(t *testing.T, depRaw, refRaw string) {
		dep := sortedDistinct(depRaw)
		ref := sortedDistinct(refRaw)
		var st Stats
		got, err := algorithmOne(store.NewSliceCursor(dep, nil), store.NewSliceCursor(ref, nil), &st)
		if err != nil {
			t.Fatal(err)
		}
		refSet := make(map[string]bool, len(ref))
		for _, v := range ref {
			refSet[v] = true
		}
		want := true
		for _, v := range dep {
			if !refSet[v] {
				want = false
				break
			}
		}
		if got != want {
			t.Errorf("algorithmOne(%q ⊆ %q) = %v, want %v", dep, ref, got, want)
		}
	})
}

// FuzzPartialMerge derives a small attribute universe plus a threshold
// from raw bytes and cross-checks the one-pass partial merge against a
// naive per-candidate coverage oracle. It also
// pins exact mode as the miss budget 0: at σ = 1 the partial merge must
// return exactly the exact SpiderMerge's INDs on the same input. Run with
// go test -fuzz=FuzzPartialMerge.
func FuzzPartialMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xff, 4, 5, 6, 7, 8, 9, 10, 11}, byte(90))
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 1}, byte(50))
	f.Add([]byte{7}, byte(100))
	f.Fuzz(func(t *testing.T, data []byte, sigmaRaw byte) {
		sigma := float64(1+int(sigmaRaw)%100) / 100
		attrs, sets := attrsFromBytes(data)
		if len(attrs) < 2 {
			t.Skip("not enough attributes")
		}
		var cands []Candidate
		for _, d := range attrs {
			for _, r := range attrs {
				if d != r {
					cands = append(cands, Candidate{Dep: d, Ref: r})
				}
			}
		}
		mem := memSource(attrs, sets)
		got, err := PartialSpiderMerge(cands, sigma, SpiderMergeOptions{Store: mem})
		if err != nil {
			t.Fatal(err)
		}
		full, err := PartialSpiderMerge(cands, 1, SpiderMergeOptions{Store: mem})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SpiderMerge(cands, SpiderMergeOptions{Store: mem})
		if err != nil {
			t.Fatal(err)
		}
		var fullINDs []IND
		for _, m := range full.Satisfied {
			fullINDs = append(fullINDs, m.IND)
		}
		if !reflect.DeepEqual(fullINDs, exact.Satisfied) {
			t.Errorf("σ=1 merge = %v, exact merge = %v", fullINDs, exact.Satisfied)
		}

		var want []PartialMatch
		for _, c := range cands {
			depVals, refVals := sets[c.Dep.ID], sets[c.Ref.ID]
			refSet := make(map[string]bool, len(refVals))
			for _, v := range refVals {
				refSet[v] = true
			}
			matched := 0
			for _, v := range depVals {
				if refSet[v] {
					matched++
				}
			}
			ind := IND{Dep: c.Dep.Ref, Ref: c.Ref.Ref}
			if len(depVals) == 0 {
				want = append(want, PartialMatch{IND: ind, Coverage: 1})
				continue
			}
			coverage := float64(matched) / float64(len(depVals))
			if coverage+1e-12 >= sigma {
				want = append(want, PartialMatch{IND: ind, Coverage: coverage, Missing: len(depVals) - matched})
			}
		}
		sortPartialMatches(want)
		if !reflect.DeepEqual(got.Satisfied, want) {
			t.Errorf("σ=%g: merge = %+v, want %+v", sigma, got.Satisfied, want)
		}
	})
}

// FuzzNaryMerge derives a random tuple database from raw bytes and
// cross-checks the merge-backed n-ary engine — value files and the memory
// backend — against the in-memory tuple-set reference.
// Run with go test -fuzz=FuzzNaryMerge.
func FuzzNaryMerge(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 1, 2, 3, 4, 5, 6, 1, 2, 3}, byte(2))
	f.Add([]byte{2, 9, 9, 0xfe, 7, 9, 9}, byte(5))
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0}, byte(0))
	f.Add([]byte{2, 0xf3, 1, 0xf0, 0xf4, 0xf3, 1, 0xf1, 0xf2}, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, knobs byte) {
		db := naryDBFromBytes(data)
		if db == nil {
			t.Skip("not enough data for two tables")
		}
		maxArity := 2 + int(knobs>>2)%2
		want, err := DiscoverNary(db, NaryOptions{MaxArity: maxArity})
		if err != nil {
			t.Fatal(err)
		}
		opts := NaryOptions{MaxArity: maxArity, Algorithm: NaryMerge}
		mem := knobs&1 != 0
		if mem {
			ds := store.NewMem()
			opts.Store, opts.Scratch = ds, ds
		} else {
			opts.WorkDir = t.TempDir()
		}
		got, err := DiscoverNary(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Errorf("merge engine differs (mem=%v):\ngot  %v\nwant %v",
				mem, naryStrings(got.Satisfied), naryStrings(want.Satisfied))
		}
		if !reflect.DeepEqual(got.Stats.SatisfiedByArity, want.Stats.SatisfiedByArity) {
			t.Errorf("level counts differ: %v vs %v",
				got.Stats.SatisfiedByArity, want.Stats.SatisfiedByArity)
		}
	})
}

// naryDBFromBytes builds a two-table database from raw bytes: the first
// byte picks the column count (2..4), each following byte contributes
// one cell (0xfe is NULL; high bytes draw from an adversarial alphabet
// of separator/escape/empty values so the engines' tuple encodings are
// exercised, everything else from a 6-value "v%d" alphabet so
// inclusions actually occur), rows alternate between the two tables.
// Returns nil when no complete row lands in each table.
func naryDBFromBytes(data []byte) *relstore.Database {
	if len(data) < 1 {
		return nil
	}
	nCols := 2 + int(data[0])%3
	data = data[1:]
	if len(data) < 2*nCols {
		return nil
	}
	db := relstore.NewDatabase("fuzz")
	cols := make([]relstore.Column, nCols)
	for i := range cols {
		cols[i] = relstore.Column{Name: fmt.Sprintf("c%d", i), Kind: value.String}
	}
	tabs := []*relstore.Table{
		db.MustCreateTable("ta", cols),
		db.MustCreateTable("tb", cols),
	}
	adversarial := []string{"", "\x00", "\x01", "x\x00", "\x00y", "x\x01y", "v0\x00v1"}
	row := make([]value.Value, 0, nCols)
	for i, b := range data {
		switch {
		case b == 0xfe:
			row = append(row, value.NewNull())
		case b >= 0xf0:
			row = append(row, value.NewString(adversarial[int(b)%len(adversarial)]))
		default:
			row = append(row, value.NewString(fmt.Sprintf("v%d", b%6)))
		}
		if len(row) == nCols {
			tabs[(i/nCols)%2].MustInsert(row...)
			row = row[:0]
		}
	}
	if tabs[0].RowCount() == 0 || tabs[1].RowCount() == 0 {
		return nil
	}
	return db
}

// sortedDistinct splits a comma-separated list into a sorted duplicate-
// free value set.
func sortedDistinct(raw string) []string {
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	sortStrings(parts)
	out := parts[:0]
	for i, v := range parts {
		if i == 0 || v != parts[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// attrsFromBytes builds up to four attributes from raw bytes: 0xff
// starts a new attribute, every other byte contributes one value from a
// 16-value alphabet (so inclusions actually occur).
func attrsFromBytes(data []byte) ([]*Attribute, map[int][]string) {
	raw := [][]string{nil}
	for _, b := range data {
		if b == 0xff {
			if len(raw) == 4 {
				break
			}
			raw = append(raw, nil)
			continue
		}
		raw[len(raw)-1] = append(raw[len(raw)-1], fmt.Sprintf("v%02d", b%16))
	}
	var attrs []*Attribute
	sets := make(map[int][]string, len(raw))
	for i, vals := range raw {
		set := map[string]bool{}
		var sorted []string
		for _, v := range vals {
			if !set[v] {
				set[v] = true
				sorted = append(sorted, v)
			}
		}
		sortStrings(sorted)
		a := &Attribute{
			ID:       i,
			Ref:      relstore.ColumnRef{Table: "t", Column: fmt.Sprintf("c%02d", i)},
			Rows:     len(vals),
			NonNull:  len(vals),
			Distinct: len(sorted),
			Unique:   len(vals) == len(sorted),
		}
		if len(sorted) > 0 {
			a.MinCanonical = sorted[0]
			a.MaxCanonical = sorted[len(sorted)-1]
		}
		attrs = append(attrs, a)
		sets[i] = sorted
	}
	return attrs, sets
}

// sortPartialMatches orders matches the way the engines emit them.
func sortPartialMatches(ms []PartialMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dep != ms[j].Dep {
			return ms[i].Dep.String() < ms[j].Dep.String()
		}
		return ms[i].Ref.String() < ms[j].Ref.String()
	})
}

// Adversarial value distributions for the merge logic: long shared
// prefixes, values that are prefixes of each other, empty-string values.
func TestAlgorithmOneAdversarialValues(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name     string
		dep, ref []string
		want     bool
	}{
		{"empty string member", []string{""}, []string{"", "a"}, true},
		{"empty string missing", []string{""}, []string{"a"}, false},
		{"prefix chain included", []string{"a", "aa", "aaa"}, []string{"a", "aa", "aaa", "aaaa"}, true},
		{"prefix chain broken", []string{"a", "aaa"}, []string{"a", "aa", "aaaa"}, false},
		{"long shared prefixes", []string{"k999998"}, []string{"k999997", "k999998", "k999999"}, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			depPath := filepath.Join(dir, fmt.Sprintf("ad%d.val", i))
			refPath := filepath.Join(dir, fmt.Sprintf("ar%d.val", i))
			if _, err := valfile.WriteAll(depPath, tc.dep); err != nil {
				t.Fatal(err)
			}
			if _, err := valfile.WriteAll(refPath, tc.ref); err != nil {
				t.Fatal(err)
			}
			dep, err := valfile.Open(depPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			ref, err := valfile.Open(refPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			var st Stats
			got, err := algorithmOne(dep, ref, &st)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}
