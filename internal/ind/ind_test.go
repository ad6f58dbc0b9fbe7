package ind

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
	"spider/internal/value"
)

// buildDB constructs a two-table database with known inclusion structure:
//
//	child.parent_id ⊆ parent.id      (a foreign key)
//	child.code      ⊆ parent.code    (accidental inclusion)
//	parent.id       ⊄ child.parent_id (child misses some ids)
func buildDB(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("unit")
	parent := db.MustCreateTable("parent", []relstore.Column{
		{Name: "id", Kind: value.Int},
		{Name: "code", Kind: value.String},
		{Name: "blob", Kind: value.LOB},
	})
	child := db.MustCreateTable("child", []relstore.Column{
		{Name: "cid", Kind: value.Int},
		{Name: "parent_id", Kind: value.Int},
		{Name: "code", Kind: value.String},
	})
	for i := 0; i < 10; i++ {
		parent.MustInsert(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("C%02d", i)), value.NewLOB("x"))
	}
	for i := 0; i < 20; i++ {
		child.MustInsert(
			value.NewInt(int64(100+i)),
			value.NewInt(int64(i%7)), // only parents 0..6 referenced
			value.NewString(fmt.Sprintf("C%02d", i%5)),
		)
	}
	return db
}

// prepare exports every attribute of db into a fresh filesystem
// dataset and returns the attributes with the dataset.
func prepare(t testing.TB, db *relstore.Database) ([]*Attribute, *store.FS) {
	t.Helper()
	ds := store.NewFS(t.TempDir())
	attrs, err := Prepare(db, ExportConfig{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	return attrs, ds
}

func indStrings(inds []IND) []string {
	var out []string
	for _, d := range inds {
		out = append(out, d.String())
	}
	return out
}

func TestCollectAttributes(t *testing.T) {
	db := buildDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 6 {
		t.Fatalf("attrs = %d, want 6", len(attrs))
	}
	byName := map[string]*Attribute{}
	for _, a := range attrs {
		byName[a.Ref.String()] = a
	}
	pid := byName["parent.id"]
	if !pid.Unique || pid.Distinct != 10 || !pid.DependentCandidate() || !pid.ReferencedCandidate() {
		t.Errorf("parent.id = %+v", pid)
	}
	blob := byName["parent.blob"]
	if blob.DependentCandidate() || blob.ReferencedCandidate() {
		t.Error("LOB column must be excluded from both roles")
	}
	ccode := byName["child.code"]
	if ccode.ReferencedCandidate() {
		t.Error("non-unique column must not be a referenced candidate")
	}
	if !ccode.DependentCandidate() {
		t.Error("non-unique column must still be a dependent candidate")
	}
}

func TestExportAttributes(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	for _, a := range attrs {
		if a.Key == "" {
			t.Fatalf("%s not exported", a.Ref)
		}
		vals := stagedValues(t, ds, a.Key)
		if len(vals) != a.Distinct {
			t.Errorf("%s: file has %d values, stats say %d", a.Ref, len(vals), a.Distinct)
		}
		if a.Distinct > 0 && vals[len(vals)-1] != a.MaxCanonical {
			t.Errorf("%s: max mismatch", a.Ref)
		}
	}
}

func TestExportRequiresDir(t *testing.T) {
	db := buildDB(t)
	attrs, _ := CollectAttributes(db)
	if err := ExportAttributes(db, attrs, ExportConfig{}); err == nil {
		t.Error("a nil Dataset must fail")
	}
}

// TestEntryPointsRequireDataset pins the one data path: every entry
// point that stages or reads value sets refuses a nil dataset instead
// of falling back to files.
func TestEntryPointsRequireDataset(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	for name, run := range map[string]func() error{
		"ExportAttributes": func() error { return ExportAttributes(db, attrs, ExportConfig{}) },
		"LoadSketches":     func() error { return LoadSketches(nil, attrs) },
		"BruteForce": func() error {
			_, err := BruteForce(cands, BruteForceOptions{})
			return err
		},
		"SinglePass": func() error {
			_, err := SinglePass(cands, SinglePassOptions{})
			return err
		},
		"SinglePassBlocked": func() error {
			_, err := SinglePassBlocked(nil, BlockedOptions{})
			return err
		},
		"SpiderMerge": func() error {
			_, err := SpiderMerge(cands, SpiderMergeOptions{})
			return err
		},
		"PartialSpiderMerge": func() error {
			_, err := PartialSpiderMerge(cands, 0.5, SpiderMergeOptions{})
			return err
		},
		"BruteForcePartial": func() error {
			_, err := BruteForcePartial(cands, PartialOptions{Threshold: 0.5})
			return err
		},
		"DiscoverNary/no Store": func() error {
			_, err := DiscoverNary(db, NaryOptions{Algorithm: NaryMerge, Scratch: ds})
			return err
		},
		"DiscoverNary/no Scratch": func() error {
			_, err := DiscoverNary(db, NaryOptions{Algorithm: NaryMerge, Store: ds})
			return err
		},
		"FindEmbedded": func() error {
			_, err := FindEmbedded(db, attrs, EmbeddedOptions{Store: ds})
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s accepted a nil dataset", name)
		}
	}
}

func TestGenerateCandidates(t *testing.T) {
	db := buildDB(t)
	attrs, _ := prepare(t, db)
	cands, st := GenerateCandidates(attrs, GenOptions{})
	// Referenced candidates: parent.id, parent.code, child.cid (unique,
	// non-LOB). Dependent candidates: those three plus child.parent_id and
	// child.code. Pairs = sum over deps of compatible refs minus self.
	if st.ReferencedAttrs != 3 || st.DependentAttrs != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Pairs != 5*3-3 { // each of the 3 unique attrs skips itself
		t.Errorf("pairs = %d, want 12", st.Pairs)
	}
	if st.Candidates != len(cands) {
		t.Error("stats.Candidates mismatch")
	}
	for _, c := range cands {
		if c.Dep == c.Ref {
			t.Error("self candidate generated")
		}
		if c.Dep.Distinct > c.Ref.Distinct {
			t.Errorf("%s survived cardinality pretest", c)
		}
	}
}

func TestMaxValuePretestPrunes(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	plain, stPlain := GenerateCandidates(attrs, GenOptions{})
	pruned, stPruned := GenerateCandidates(attrs, GenOptions{MaxValuePretest: true})
	if len(pruned) >= len(plain) {
		t.Errorf("max-value pretest pruned nothing: %d vs %d", len(pruned), len(plain))
	}
	if stPruned.PrunedMaxValue == 0 {
		t.Error("PrunedMaxValue not counted")
	}
	if stPlain.PrunedMaxValue != 0 {
		t.Error("pretest off must not count prunes")
	}
	// Soundness: pruning must not remove any satisfied IND.
	var counter valfile.ReadCounter
	full, err := BruteForce(plain, BruteForceOptions{Store: ds, Counter: &counter})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := BruteForce(pruned, BruteForceOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Satisfied, reduced.Satisfied) {
		t.Errorf("pretest changed results:\nfull    %v\nreduced %v",
			indStrings(full.Satisfied), indStrings(reduced.Satisfied))
	}
}

func TestDatatypePruning(t *testing.T) {
	if !kindsCompatible(value.Int, value.Float) {
		t.Error("numeric kinds must be compatible")
	}
	if !kindsCompatible(value.String, value.Int) {
		t.Error("string must be compatible with everything (life-science rule)")
	}
	if kindsCompatible(value.Bool, value.Int) {
		t.Error("bool and int must be incompatible")
	}
}

func TestBruteForceFindsKnownINDs(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	var counter valfile.ReadCounter
	res, err := BruteForce(cands, BruteForceOptions{Store: ds, Counter: &counter})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range res.Satisfied {
		got[d.String()] = true
	}
	for _, want := range []string{
		"child.parent_id ⊆ parent.id",
		"child.code ⊆ parent.code",
	} {
		if !got[want] {
			t.Errorf("missing IND %s; got %v", want, indStrings(res.Satisfied))
		}
	}
	if got["parent.id ⊆ child.cid"] {
		t.Error("false IND reported")
	}
	if res.Stats.ItemsRead == 0 || res.Stats.Comparisons == 0 || res.Stats.FilesOpened == 0 {
		t.Errorf("stats not collected: %+v", res.Stats)
	}
	if res.Stats.Satisfied != len(res.Satisfied) || res.Stats.Candidates != len(cands) {
		t.Error("stats counts wrong")
	}
}

func TestAlgorithmOneEdgeCases(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, vals ...string) string {
		p := filepath.Join(dir, name)
		if _, err := writeValueFile(p, vals); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name     string
		dep, ref []string
		want     bool
	}{
		{"empty dep", nil, []string{"a"}, true},
		{"empty ref nonempty dep", []string{"a"}, nil, false},
		{"both empty", nil, nil, true},
		{"equal sets", []string{"a", "b"}, []string{"a", "b"}, true},
		{"subset", []string{"b"}, []string{"a", "b", "c"}, true},
		{"first dep smaller than all refs", []string{"0"}, []string{"a", "b"}, false},
		{"last dep beyond refs", []string{"a", "z"}, []string{"a", "b"}, false},
		{"interleaved miss", []string{"a", "c"}, []string{"a", "b", "d"}, false},
		{"dep equals ref max", []string{"d"}, []string{"a", "d"}, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			depPath := mk(fmt.Sprintf("d%d.val", i), tc.dep...)
			refPath := mk(fmt.Sprintf("r%d.val", i), tc.ref...)
			dep, err := store.OpenFile(depPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			ref, err := store.OpenFile(refPath, nil)
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
				t.Errorf("algorithmOne(%v ⊆ %v) = %v, want %v", tc.dep, tc.ref, got, tc.want)
			}
		})
	}
}

func TestSinglePassMatchesBruteForce(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})

	var bfCounter, spCounter valfile.ReadCounter
	bf, err := BruteForce(cands, BruteForceOptions{Store: ds, Counter: &bfCounter})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SinglePass(cands, SinglePassOptions{Store: ds, Counter: &spCounter})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Satisfied, sp.Satisfied) {
		t.Fatalf("results differ:\nbrute force %v\nsingle pass %v",
			indStrings(bf.Satisfied), indStrings(sp.Satisfied))
	}
	if sp.Stats.ItemsRead > bf.Stats.ItemsRead {
		t.Errorf("single pass read more items (%d) than brute force (%d)",
			sp.Stats.ItemsRead, bf.Stats.ItemsRead)
	}
	if sp.Stats.Events == 0 {
		t.Error("single pass must count monitor events")
	}
}

// The defining property of the single-pass algorithm: every value file is
// read at most once, so ItemsRead cannot exceed the total number of
// distinct values across dependent and referenced roles.
func TestSinglePassIOBound(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	var bound int64
	seenDep := map[int]bool{}
	seenRef := map[int]bool{}
	for _, c := range cands {
		if !seenDep[c.Dep.ID] {
			seenDep[c.Dep.ID] = true
			bound += int64(c.Dep.Distinct)
		}
		if !seenRef[c.Ref.ID] {
			seenRef[c.Ref.ID] = true
			bound += int64(c.Ref.Distinct)
		}
	}
	var counter valfile.ReadCounter
	if _, err := SinglePass(cands, SinglePassOptions{Store: ds, Counter: &counter}); err != nil {
		t.Fatal(err)
	}
	if counter.Total() > bound {
		t.Errorf("single pass read %d items, bound is %d", counter.Total(), bound)
	}
}

// Randomized cross-check of all five approaches against the in-memory
// oracle, on databases engineered to contain real inclusions.
func TestAllApproachesAgreeRandomized(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := randomDB(seed)
			attrs, ds := prepare(t, db)
			cands, _ := GenerateCandidates(attrs, GenOptions{})
			if len(cands) == 0 {
				t.Skip("no candidates for this seed")
			}

			sets := map[int][]string{}
			for _, a := range attrs {
				sets[a.ID] = stagedValues(t, ds, a.Key)
			}
			want := Reference(cands, sets).Satisfied

			bf, err := BruteForce(cands, BruteForceOptions{Store: ds})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := SinglePass(cands, SinglePassOptions{Store: ds})
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := SinglePassBlocked(cands, BlockedOptions{Store: ds, DepBlock: 2, RefBlock: 2})
			if err != nil {
				t.Fatal(err)
			}
			bfT, err := BruteForce(cands, BruteForceOptions{Store: ds, Transitivity: true})
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]IND{
				"brute force":          bf.Satisfied,
				"single pass":          sp.Satisfied,
				"blocked single pass":  blocked.Satisfied,
				"brute force + transi": bfT.Satisfied,
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s differs from oracle:\ngot  %v\nwant %v",
						name, indStrings(got), indStrings(want))
				}
			}
			for _, variant := range []SQLVariant{SQLJoin, SQLMinus, SQLNotIn} {
				res, err := RunSQL(db, cands, SQLOptions{Variant: variant})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Satisfied, want) {
					t.Errorf("SQL %s differs from oracle:\ngot  %v\nwant %v",
						variant, indStrings(res.Satisfied), indStrings(want))
				}
			}
		})
	}
}

// randomDB builds a small random database with planted inclusions.
func randomDB(seed int64) *relstore.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDatabase(fmt.Sprintf("rand%d", seed))
	nTables := 2 + rng.Intn(3)
	var pools [][]string
	// Shared value pools create accidental inclusions across tables.
	for p := 0; p < 3; p++ {
		pool := make([]string, 4+rng.Intn(12))
		for i := range pool {
			pool[i] = fmt.Sprintf("p%d_%03d", p, rng.Intn(40))
		}
		pools = append(pools, pool)
	}
	for ti := 0; ti < nTables; ti++ {
		nCols := 2 + rng.Intn(3)
		cols := make([]relstore.Column, nCols)
		for ci := range cols {
			cols[ci] = relstore.Column{Name: fmt.Sprintf("c%d", ci), Kind: value.String}
		}
		tab := db.MustCreateTable(fmt.Sprintf("t%d", ti), cols)
		rows := 5 + rng.Intn(25)
		colPool := make([]int, nCols)
		for ci := range colPool {
			colPool[ci] = rng.Intn(len(pools))
		}
		for r := 0; r < rows; r++ {
			row := make([]value.Value, nCols)
			for ci := range row {
				switch rng.Intn(10) {
				case 0:
					row[ci] = value.NewNull()
				case 1:
					// Unique-ish values make some columns referenced
					// candidates.
					row[ci] = value.NewString(fmt.Sprintf("u%d_%d_%d", ti, ci, r))
				default:
					pool := pools[colPool[ci]]
					row[ci] = value.NewString(pool[rng.Intn(len(pool))])
				}
			}
			tab.MustInsert(row...)
		}
	}
	return db
}

func TestBlockedBoundsOpenFiles(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	res, err := SinglePassBlocked(cands, BlockedOptions{Store: ds, DepBlock: 1, RefBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxOpenFiles > 2 {
		t.Errorf("MaxOpenFiles = %d with 1x1 blocks, want <= 2", res.Stats.MaxOpenFiles)
	}
	full, err := SinglePass(cands, SinglePassOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Satisfied, full.Satisfied) {
		t.Error("blocked results differ from unblocked")
	}
}

func TestTransitivityFilterRules(t *testing.T) {
	mkAttr := func(id int) *Attribute {
		return &Attribute{ID: id, Ref: relstore.ColumnRef{Table: "t", Column: fmt.Sprintf("c%d", id)}}
	}
	a, b, c := mkAttr(0), mkAttr(1), mkAttr(2)
	f := NewTransitivityFilter()
	// Rule 1: A ⊆ B, B ⊆ C satisfied ⇒ A ⊆ C satisfied.
	f.Record(Candidate{Dep: a, Ref: b}, true)
	f.Record(Candidate{Dep: b, Ref: c}, true)
	sat, decided := f.Decide(Candidate{Dep: a, Ref: c})
	if !decided || !sat {
		t.Errorf("rule 1 failed: sat=%v decided=%v", sat, decided)
	}
	// Rule 2: A ⊆ B satisfied, A ⊆ C refuted ⇒ B ⊆ C refuted.
	g := NewTransitivityFilter()
	g.Record(Candidate{Dep: a, Ref: b}, true)
	g.Record(Candidate{Dep: a, Ref: c}, false)
	sat, decided = g.Decide(Candidate{Dep: b, Ref: c})
	if !decided || sat {
		t.Errorf("rule 2 failed: sat=%v decided=%v", sat, decided)
	}
	// No inference without evidence.
	if _, decided := g.Decide(Candidate{Dep: c, Ref: a}); decided {
		t.Error("unsupported inference")
	}
}

func TestSQLStatementShapes(t *testing.T) {
	dep := &Attribute{Ref: relstore.ColumnRef{Table: "child", Column: "parent_id"}, NonNull: 5}
	ref := &Attribute{ID: 1, Ref: relstore.ColumnRef{Table: "parent", Column: "id"}}
	c := Candidate{Dep: dep, Ref: ref}
	join := SQLStatement(SQLJoin, c)
	if want := "select count(*) as matchedDeps from (child d0 JOIN parent r0 on d0.parent_id = r0.id)"; join != want {
		t.Errorf("join SQL = %q", join)
	}
	minus := SQLStatement(SQLMinus, c)
	for _, frag := range []string{"first_rows", "MINUS", "rownum < 2", "to_char (parent_id)", "is not null"} {
		if !contains(minus, frag) {
			t.Errorf("minus SQL missing %q: %s", frag, minus)
		}
	}
	notin := SQLStatement(SQLNotIn, c)
	for _, frag := range []string{"NOT IN", "rownum < 2", "first_rows"} {
		if !contains(notin, frag) {
			t.Errorf("not-in SQL missing %q: %s", frag, notin)
		}
	}
	if SQLJoin.String() != "join" || SQLMinus.String() != "minus" || SQLNotIn.String() != "not in" {
		t.Error("variant names wrong")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestRunSQLVariantsOnKnownDB(t *testing.T) {
	db := buildDB(t)
	attrs, _ := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	var want []IND
	for _, v := range []SQLVariant{SQLJoin, SQLMinus, SQLNotIn} {
		res, err := RunSQL(db, cands, SQLOptions{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Satisfied
			continue
		}
		if !reflect.DeepEqual(res.Satisfied, want) {
			t.Errorf("%s disagrees: %v vs %v", v, indStrings(res.Satisfied), indStrings(want))
		}
	}
}

func TestUnexportedCandidatesRejected(t *testing.T) {
	db := buildDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	ds := store.NewFS(t.TempDir())
	if _, err := BruteForce(cands, BruteForceOptions{Store: ds}); err == nil {
		t.Error("brute force on unexported attributes must fail")
	}
	if _, err := SinglePass(cands, SinglePassOptions{Store: ds}); err == nil {
		t.Error("single pass on unexported attributes must fail")
	}
}

// The I/O crossover of Figure 5: on a database where most candidates are
// refuted quickly, brute force still re-reads files per candidate while
// single pass reads each file once — single pass must read strictly fewer
// items as soon as attributes participate in several candidates.
func TestFigure5IOShape(t *testing.T) {
	db := randomDB(99)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	if len(cands) < 4 {
		t.Skip("not enough candidates")
	}
	var bfC, spC valfile.ReadCounter
	if _, err := BruteForce(cands, BruteForceOptions{Store: ds, Counter: &bfC}); err != nil {
		t.Fatal(err)
	}
	if _, err := SinglePass(cands, SinglePassOptions{Store: ds, Counter: &spC}); err != nil {
		t.Fatal(err)
	}
	if spC.Total() > bfC.Total() {
		t.Errorf("single pass I/O (%d) exceeds brute force (%d)", spC.Total(), bfC.Total())
	}
}
