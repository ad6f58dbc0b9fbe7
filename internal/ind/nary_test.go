package ind

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spider/internal/extsort"
	"spider/internal/relstore"
	"spider/internal/value"
)

// naryDB plants a known binary IND: child(px, py) tuples are drawn from
// parent(x, y) rows, so (px, py) ⊆ (x, y) holds. A decoy table mixes the
// same column domains with broken pairing: both unary INDs hold but the
// binary one must not.
func naryDB(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("nary")
	parent := db.MustCreateTable("parent", []relstore.Column{
		{Name: "x", Kind: value.Int},
		{Name: "y", Kind: value.String},
	})
	type pr struct {
		x int64
		y string
	}
	var rows []pr
	for i := 0; i < 24; i++ {
		rows = append(rows, pr{x: int64(i), y: fmt.Sprintf("y%02d", i%6)})
	}
	for _, r := range rows {
		parent.MustInsert(value.NewInt(r.x), value.NewString(r.y))
	}
	child := db.MustCreateTable("child", []relstore.Column{
		{Name: "px", Kind: value.Int},
		{Name: "py", Kind: value.String},
	})
	for i := 0; i < 15; i++ {
		r := rows[(i*7)%len(rows)]
		child.MustInsert(value.NewInt(r.x), value.NewString(r.y))
	}
	// Decoy: px values and py values from the parent domains, but paired
	// against the grain (x=i with y of row i+3), so some tuple is absent.
	decoy := db.MustCreateTable("decoy", []relstore.Column{
		{Name: "px", Kind: value.Int},
		{Name: "py", Kind: value.String},
	})
	for i := 0; i < 15; i++ {
		a := rows[i%len(rows)]
		b := rows[(i+3)%len(rows)]
		decoy.MustInsert(value.NewInt(a.x), value.NewString(b.y))
	}
	return db
}

// randomNaryDB builds a random database with genuine higher-arity
// structure: a parent table over small value pools plus child tables
// whose rows are sampled (and column-projected) from parent rows, so
// composite tuples really are included — alongside decoy tables that mix
// the same domains against the grain.
func randomNaryDB(seed int64) *relstore.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDatabase(fmt.Sprintf("nrand%d", seed))
	nCols := 3 + rng.Intn(2)
	cols := make([]relstore.Column, nCols)
	for i := range cols {
		cols[i] = relstore.Column{Name: fmt.Sprintf("c%d", i), Kind: value.String}
	}
	parent := db.MustCreateTable("parent", cols)
	nRows := 10 + rng.Intn(20)
	rows := make([][]value.Value, nRows)
	for r := range rows {
		row := make([]value.Value, nCols)
		for c := range row {
			row[c] = value.NewString(fmt.Sprintf("v%d_%d", c, rng.Intn(3+c*2)))
		}
		rows[r] = row
		parent.MustInsert(row...)
	}
	for t := 0; t < 1+rng.Intn(2); t++ {
		k := 2 + rng.Intn(nCols-1)
		proj := rng.Perm(nCols)[:k]
		ccols := make([]relstore.Column, k)
		for i := range ccols {
			ccols[i] = relstore.Column{Name: fmt.Sprintf("d%d", i), Kind: value.String}
		}
		child := db.MustCreateTable(fmt.Sprintf("child%d", t), ccols)
		for r := 0; r < 5+rng.Intn(10); r++ {
			src := rows[rng.Intn(nRows)]
			row := make([]value.Value, k)
			for i, p := range proj {
				if rng.Intn(12) == 0 {
					row[i] = value.NewNull()
				} else {
					row[i] = src[p]
				}
			}
			child.MustInsert(row...)
		}
	}
	// Decoy: parent domains, rows recombined across source rows.
	decoy := db.MustCreateTable("decoy", []relstore.Column{
		{Name: "d0", Kind: value.String},
		{Name: "d1", Kind: value.String},
	})
	for r := 0; r < 8+rng.Intn(8); r++ {
		a, b := rows[rng.Intn(nRows)], rows[rng.Intn(nRows)]
		decoy.MustInsert(a[0], b[1])
	}
	return db
}

func naryStrings(inds []NaryIND) []string {
	var out []string
	for _, d := range inds {
		out = append(out, d.String())
	}
	return out
}

func TestDiscoverNaryFindsPlantedBinary(t *testing.T) {
	db := naryDB(t)
	res, err := DiscoverNary(db, NaryOptions{MaxArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := "(child.px, child.py) ⊆ (parent.x, parent.y)"
	found := false
	for _, d := range res.Satisfied {
		if d.String() == want {
			found = true
		}
		if strings.HasPrefix(d.String(), "(decoy.px, decoy.py) ⊆ (parent.x") {
			t.Errorf("decoy binary IND reported: %s", d)
		}
	}
	if !found {
		t.Errorf("planted binary IND missing; got %v", naryStrings(res.Satisfied))
	}
	if res.Stats.CandidatesByArity[2] == 0 || res.Stats.TuplesCompared == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

// The file-backed unary seed (NaryOptions.WorkDir) must agree exactly
// with the in-memory tuple-set seed: same satisfied INDs, same per-level
// counts, and the file path must account its I/O.
func TestDiscoverNaryWorkDirMatchesInMemory(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := randomDB(seed)
		mem, err := DiscoverNary(db, NaryOptions{MaxArity: 3})
		if err != nil {
			t.Fatal(err)
		}
		file, err := DiscoverNary(db, NaryOptions{MaxArity: 3, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(file.Satisfied, mem.Satisfied) {
			t.Errorf("seed %d: file-backed seed changed results:\ngot  %v\nwant %v",
				seed, naryStrings(file.Satisfied), naryStrings(mem.Satisfied))
		}
		if !reflect.DeepEqual(file.Stats.SatisfiedByArity, mem.Stats.SatisfiedByArity) ||
			!reflect.DeepEqual(file.Stats.CandidatesByArity, mem.Stats.CandidatesByArity) {
			t.Errorf("seed %d: level counts differ: %+v vs %+v", seed, file.Stats, mem.Stats)
		}
		if file.Stats.ItemsRead == 0 {
			t.Errorf("seed %d: file-backed seed read no items", seed)
		}
		if mem.Stats.ItemsRead != 0 {
			t.Errorf("seed %d: in-memory seed claims file I/O: %d", seed, mem.Stats.ItemsRead)
		}
	}
}

// Decoy unary inclusions must exist (the precondition of the decoy test
// above): both decoy columns are unary-included in parent's columns even
// though the binary combination is not.
func TestNaryDecoyUnaryHolds(t *testing.T) {
	db := naryDB(t)
	decoy := db.Table("decoy")
	parent := db.Table("parent")
	if !tupleSubset1(decoy, 0, parent, 0) || !tupleSubset1(decoy, 1, parent, 1) {
		t.Error("decoy unary inclusions must hold by construction")
	}
}

// tupleSubset1 is the single-column analogue of tupleSubset.
func tupleSubset1(dep *relstore.Table, d int, ref *relstore.Table, r int) bool {
	set := map[string]bool{}
	for i := 0; i < ref.RowCount(); i++ {
		set[ref.Row(i)[r].Canonical()] = true
	}
	for i := 0; i < dep.RowCount(); i++ {
		if !set[dep.Row(i)[d].Canonical()] {
			return false
		}
	}
	return true
}

// A ternary IND emerges when a third paired column is added.
func TestDiscoverNaryTernary(t *testing.T) {
	db := relstore.NewDatabase("tern")
	parent := db.MustCreateTable("parent", []relstore.Column{
		{Name: "a", Kind: value.Int},
		{Name: "b", Kind: value.Int},
		{Name: "c", Kind: value.Int},
	})
	type row struct{ a, b, c int64 }
	var rows []row
	for i := 0; i < 20; i++ {
		rows = append(rows, row{int64(i), int64(i * 2 % 7), int64(i * 3 % 5)})
	}
	for _, r := range rows {
		parent.MustInsert(value.NewInt(r.a), value.NewInt(r.b), value.NewInt(r.c))
	}
	child := db.MustCreateTable("child", []relstore.Column{
		{Name: "a", Kind: value.Int},
		{Name: "b", Kind: value.Int},
		{Name: "c", Kind: value.Int},
	})
	for i := 0; i < 12; i++ {
		r := rows[(i*5)%len(rows)]
		child.MustInsert(value.NewInt(r.a), value.NewInt(r.b), value.NewInt(r.c))
	}
	res, err := DiscoverNary(db, NaryOptions{MaxArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := "(child.a, child.b, child.c) ⊆ (parent.a, parent.b, parent.c)"
	found := false
	for _, d := range res.Satisfied {
		if d.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("ternary IND missing; got %v", naryStrings(res.Satisfied))
	}
	if res.Stats.SatisfiedByArity[3] == 0 {
		t.Error("arity-3 count not recorded")
	}
}

// Exhaustive cross-check on random two-table databases: DiscoverNary at
// arity 2 must agree with naive enumeration of all column-pair tuples.
func TestDiscoverNaryMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relstore.NewDatabase("rand")
		mkTable := func(name string, nCols, nRows, pool int) *relstore.Table {
			cols := make([]relstore.Column, nCols)
			for i := range cols {
				cols[i] = relstore.Column{Name: fmt.Sprintf("c%d", i), Kind: value.Int}
			}
			tab := db.MustCreateTable(name, cols)
			row := make([]value.Value, nCols)
			for r := 0; r < nRows; r++ {
				for i := range row {
					row[i] = value.NewInt(int64(rng.Intn(pool)))
				}
				tab.MustInsert(row...)
			}
			return tab
		}
		ta := mkTable("ta", 3, 12, 4)
		tb := mkTable("tb", 3, 18, 4)

		res, err := DiscoverNary(db, NaryOptions{MaxArity: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, d := range res.Satisfied {
			got[d.String()] = true
		}

		// Naive enumeration of binary INDs across the two tables (both
		// directions plus within-table), honouring the convention that
		// dep columns are ordered and distinct.
		naive := map[string]bool{}
		tables := []*relstore.Table{ta, tb}
		for _, dep := range tables {
			for _, ref := range tables {
				for d1 := 0; d1 < 3; d1++ {
					for d2 := d1 + 1; d2 < 3; d2++ {
						for r1 := 0; r1 < 3; r1++ {
							for r2 := 0; r2 < 3; r2++ {
								if r1 == r2 {
									continue
								}
								// Reflexive positions (c ⊆ c within one
								// table) are trivial and excluded, the
								// same convention DiscoverNary's level 1
								// applies.
								if dep == ref && (d1 == r1 || d2 == r2) {
									continue
								}
								if tupleSubset(dep, d1, d2, ref, r1, r2) {
									key := fmt.Sprintf("(%s.c%d, %s.c%d) ⊆ (%s.c%d, %s.c%d)",
										dep.Name, d1, dep.Name, d2, ref.Name, r1, ref.Name, r2)
									naive[key] = true
								}
							}
						}
					}
				}
			}
		}
		// Exact agreement: every reported binary IND must be truly
		// satisfied, and every truly satisfied binary IND must be
		// reported (its unary projections are necessarily satisfied, so
		// the apriori prune cannot drop it).
		for k := range got {
			if !naive[k] {
				t.Errorf("seed %d: reported IND not satisfied: %s", seed, k)
			}
		}
		for k := range naive {
			if !got[k] {
				t.Errorf("seed %d: satisfied IND missing: %s", seed, k)
			}
		}
	}
}

// tupleSubset reports whether dep's (d1,d2) tuples are contained in ref's
// (r1,r2) tuples, ignoring tuples with NULLs (none here).
func tupleSubset(dep *relstore.Table, d1, d2 int, ref *relstore.Table, r1, r2 int) bool {
	set := map[[2]string]bool{}
	for i := 0; i < ref.RowCount(); i++ {
		row := ref.Row(i)
		set[[2]string{row[r1].Canonical(), row[r2].Canonical()}] = true
	}
	for i := 0; i < dep.RowCount(); i++ {
		row := dep.Row(i)
		if !set[[2]string{row[d1].Canonical(), row[d2].Canonical()}] {
			return false
		}
	}
	return true
}

// Exceeding the candidate cap must truncate the search, not abort it:
// the already-verified lower-arity results are returned with the
// Truncated/StoppedAtArity markers set.
func TestDiscoverNaryCandidateCapTruncates(t *testing.T) {
	db := naryDB(t)
	res, err := DiscoverNary(db, NaryOptions{MaxArity: 2, MaxCandidatesPerLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StoppedAtArity != 2 {
		t.Errorf("Truncated = %v, StoppedAtArity = %d; want true, 2", res.Truncated, res.StoppedAtArity)
	}
	if res.Stats.SatisfiedByArity[1] == 0 {
		t.Error("unary seed results discarded on truncation")
	}
	if len(res.Satisfied) != 0 {
		t.Errorf("no arity-2 level was verified, yet Satisfied = %v", naryStrings(res.Satisfied))
	}
}

// A cap hit at arity 3 must keep every verified arity-2 IND. A child
// table copying a 6-column parent with disjoint per-column domains makes
// the levels grow (C(6,2) = 15 candidates at arity 2, C(6,3) = 20 at
// arity 3), so a cap of 15 passes level 2 and trips level 3.
func TestDiscoverNaryTruncationKeepsLowerArities(t *testing.T) {
	const m = 6
	db := relstore.NewDatabase("copy")
	cols := make([]relstore.Column, m)
	for i := range cols {
		cols[i] = relstore.Column{Name: fmt.Sprintf("c%d", i), Kind: value.String}
	}
	parent := db.MustCreateTable("parent", cols)
	child := db.MustCreateTable("child", cols)
	for r := 0; r < 12; r++ {
		row := make([]value.Value, m)
		for i := range row {
			row[i] = value.NewString(fmt.Sprintf("dom%d_%d", i, r%4))
		}
		parent.MustInsert(row...)
		if r%2 == 0 {
			child.MustInsert(row...)
		}
	}

	full, err := DiscoverNary(db, NaryOptions{MaxArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.StoppedAtArity != 0 {
		t.Fatalf("uncapped run must not truncate: %+v", full)
	}
	cap2 := full.Stats.CandidatesByArity[2]
	if full.Stats.CandidatesByArity[3] <= cap2 || full.Stats.SatisfiedByArity[2] == 0 {
		t.Fatalf("fixture lost its level growth: %v", full.Stats.CandidatesByArity)
	}
	res, err := DiscoverNary(db, NaryOptions{MaxArity: 3, MaxCandidatesPerLevel: cap2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StoppedAtArity != 3 {
		t.Errorf("Truncated = %v, StoppedAtArity = %d; want true, 3", res.Truncated, res.StoppedAtArity)
	}
	var want []NaryIND
	for _, d := range full.Satisfied {
		if d.Arity() == 2 {
			want = append(want, d)
		}
	}
	if !reflect.DeepEqual(res.Satisfied, want) {
		t.Errorf("truncated result lost arity-2 INDs:\ngot  %v\nwant %v",
			naryStrings(res.Satisfied), naryStrings(want))
	}
}

// The merge-backed engine must produce byte-identical satisfied sets and
// level counts to the in-memory tuple-set reference, across shard counts,
// the value-file and spill backends, and arities, on random databases.
func TestNaryMergeMatchesTupleSets(t *testing.T) {
	dbs := []*relstore.Database{}
	for seed := int64(0); seed < 3; seed++ {
		dbs = append(dbs, randomDB(seed), randomNaryDB(seed))
	}
	higherArity := 0
	for seed, db := range dbs {
		for _, maxArity := range []int{2, 3, 4} {
			want, err := DiscoverNary(db, NaryOptions{MaxArity: maxArity})
			if err != nil {
				t.Fatal(err)
			}
			higherArity += len(want.Satisfied)
			for _, backend := range []string{"files", "spill"} {
				for _, shards := range []int{1, 2, 4} {
					name := fmt.Sprintf("seed=%d arity=%d backend=%s shards=%d", seed, maxArity, backend, shards)
					opts := NaryOptions{
						MaxArity:  maxArity,
						Algorithm: NaryMerge,
						Shards:    shards,
					}
					if backend == "spill" {
						sp := extsort.NewSpill()
						opts.Store, opts.Scratch = sp, sp
						defer sp.Close()
					} else {
						opts.WorkDir = t.TempDir()
					}
					got, err := DiscoverNary(db, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
						t.Errorf("%s: satisfied sets differ:\ngot  %v\nwant %v",
							name, naryStrings(got.Satisfied), naryStrings(want.Satisfied))
					}
					if !reflect.DeepEqual(got.Stats.SatisfiedByArity, want.Stats.SatisfiedByArity) ||
						!reflect.DeepEqual(got.Stats.CandidatesByArity, want.Stats.CandidatesByArity) {
						t.Errorf("%s: level counts differ: %+v vs %+v", name, got.Stats, want.Stats)
					}
					if got.Stats.ItemsRead == 0 {
						t.Errorf("%s: merge engine read no items", name)
					}
					if got.Truncated != want.Truncated {
						t.Errorf("%s: truncation differs", name)
					}
				}
			}
			if want.Stats.ItemsRead != 0 {
				t.Errorf("seed %d: tuple-set engine claims stream I/O: %d", seed, want.Stats.ItemsRead)
			}
		}
	}
	if higherArity == 0 {
		t.Error("property test is vacuous: no database produced an arity ≥ 2 IND")
	}
}

// Tuple identity must be injective: components containing the tuple
// separator byte must not conflate. ("x\x00", "y") and ("x", "\x00y")
// would both encode to "x\x00\x00y\x00" under naive concatenation, so a
// dependent holding only the first tuple would falsely be included in a
// reference holding only the second. Both engines must refute the
// binary IND here even though both unary projections hold.
func TestNarySeparatorBytesDoNotConflateTuples(t *testing.T) {
	db := relstore.NewDatabase("sep")
	cols := []relstore.Column{
		{Name: "a", Kind: value.String},
		{Name: "b", Kind: value.String},
	}
	dep := db.MustCreateTable("dep", cols)
	ref := db.MustCreateTable("ref", cols)
	dep.MustInsert(value.NewString("x\x00"), value.NewString("y"))
	ref.MustInsert(value.NewString("x"), value.NewString("\x00y"))
	// Make each unary projection hold — but never the composite tuple —
	// so the arity-2 candidate survives the apriori prune.
	ref.MustInsert(value.NewString("x\x00"), value.NewString("z"))
	ref.MustInsert(value.NewString("w"), value.NewString("y"))
	for _, opts := range []NaryOptions{
		{MaxArity: 2},
		{MaxArity: 2, Algorithm: NaryMerge},
	} {
		res, err := DiscoverNary(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Satisfied {
			if d.String() == "(dep.a, dep.b) ⊆ (ref.a, ref.b)" {
				t.Errorf("%v engine: separator-conflated tuples reported as included", opts.Algorithm)
			}
		}
	}
}

// The merge engine must reject sharding combined with the tuple-sets
// engine, mirroring the unary API contracts.
func TestDiscoverNaryOptionValidation(t *testing.T) {
	db := naryDB(t)
	if _, err := DiscoverNary(db, NaryOptions{Shards: 2}); err == nil {
		t.Error("Shards without NaryMerge must fail")
	}
}

// Per-level items-read accounting: every merge-verified level reads
// streams; the totals must add up.
func TestNaryMergeItemsReadByArity(t *testing.T) {
	db := naryDB(t)
	res, err := DiscoverNary(db, NaryOptions{MaxArity: 3, Algorithm: NaryMerge})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for arity, n := range res.Stats.ItemsReadByArity {
		if arity >= 1 && res.Stats.CandidatesByArity[arity] > 0 && n == 0 {
			t.Errorf("arity %d: %d candidates verified without reading items", arity, res.Stats.CandidatesByArity[arity])
		}
		sum += n
	}
	if sum != res.Stats.ItemsRead {
		t.Errorf("ItemsRead = %d, sum of levels = %d", res.Stats.ItemsRead, sum)
	}
}

func TestNaryINDString(t *testing.T) {
	d := NaryIND{
		Dep: []relstore.ColumnRef{{Table: "a", Column: "x"}, {Table: "a", Column: "y"}},
		Ref: []relstore.ColumnRef{{Table: "b", Column: "u"}, {Table: "b", Column: "v"}},
	}
	if got, want := d.String(), "(a.x, a.y) ⊆ (b.u, b.v)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if d.Arity() != 2 {
		t.Error("arity wrong")
	}
}
