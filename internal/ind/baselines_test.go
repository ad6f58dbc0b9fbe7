package ind

import (
	"reflect"
	"testing"

	"spider/internal/relstore"
	"spider/internal/value"
)

// Both Sec 6 baselines must agree with our algorithms on every dataset.
func TestDeMarchiMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := randomDB(seed)
		attrs, ds := prepare(t, db)
		cands, _ := GenerateCandidates(attrs, GenOptions{})
		want, err := BruteForce(cands, BruteForceOptions{Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		for _, datatypes := range []bool{false, true} {
			got, err := DeMarchi(db, attrs, cands, DeMarchiOptions{Datatypes: datatypes})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
				t.Errorf("seed %d datatypes=%v: De Marchi differs:\ngot  %v\nwant %v",
					seed, datatypes, indStrings(got.Satisfied), indStrings(want.Satisfied))
			}
		}
	}
}

func TestDeMarchiStats(t *testing.T) {
	db := buildDB(t)
	attrs, _ := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	res, err := DeMarchi(db, attrs, cands, DeMarchiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexedValues == 0 || res.Stats.IndexEntries == 0 {
		t.Errorf("preprocessing stats empty: %+v", res.Stats)
	}
	// The "huge preprocessing requirement": the index holds one entry per
	// distinct (attribute, value) pair — at least as many entries as the
	// largest attribute has values.
	var maxDistinct int64
	for _, a := range attrs {
		if int64(a.Distinct) > maxDistinct {
			maxDistinct = int64(a.Distinct)
		}
	}
	if res.Stats.IndexEntries < maxDistinct {
		t.Errorf("IndexEntries = %d, want >= %d", res.Stats.IndexEntries, maxDistinct)
	}
}

func TestBellBrockhausenMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := randomDB(seed)
		attrs, ds := prepare(t, db)
		// The reference: full candidate set, no pretests.
		cands, _ := GenerateCandidates(attrs, GenOptions{})
		want, err := BruteForce(cands, BruteForceOptions{Store: ds})
		if err != nil {
			t.Fatal(err)
		}
		got, err := BellBrockhausen(db, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
			t.Errorf("seed %d: Bell & Brockhausen differs:\ngot  %v\nwant %v",
				seed, indStrings(got.Satisfied), indStrings(want.Satisfied))
		}
		if got.Stats.TestedWithSQL > got.Stats.Candidates {
			t.Errorf("seed %d: tested more than candidates: %+v", seed, got.Stats)
		}
	}
}

func TestBellBrockhausenInfers(t *testing.T) {
	// A chain a ⊆ b ⊆ c lets transitivity decide a ⊆ c without SQL.
	db := chainDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BellBrockhausen(db, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InferredSatisfied == 0 {
		t.Errorf("no transitive inference on a chained schema: %+v", res.Stats)
	}
	if res.Stats.TestedWithSQL >= res.Stats.Candidates {
		t.Error("inference must save SQL statements")
	}
}

// chainDB builds four single-column tables engineered so that, processed
// in catalog order, both transitivity rules fire: a ⊆ b satisfied,
// a ⊆ c refuted ⇒ b ⊆ c inferred refuted (rule 2); d ⊆ a and a ⊆ b
// satisfied ⇒ d ⊆ b inferred satisfied (rule 1). Value ranges overlap so
// the min/max pretests keep every candidate.
func chainDB(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("chain")
	mk := func(table, col string, vals ...string) {
		tab := db.MustCreateTable(table, []relstore.Column{{Name: col, Kind: value.String}})
		for _, v := range vals {
			tab.MustInsert(value.NewString(v))
		}
	}
	mk("ta", "a", "b", "c")
	mk("tb", "b", "b", "c", "d")
	mk("tc", "c", "a", "c", "x", "z")
	mk("td", "d", "b")
	return db
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 64, 129, 3} {
		b.set(i)
	}
	for _, i := range []int{0, 3, 64, 129} {
		if !b.get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.get(5) || b.get(128) {
		t.Error("unset bits report set")
	}
	if got := b.members(); !reflect.DeepEqual(got, []int{0, 3, 64, 129}) {
		t.Errorf("members = %v", got)
	}
}
