package ind

import (
	"reflect"
	"testing"

	"spider/internal/relstore"
)

// chainAttrs builds the nested value sets A ⊂ B ⊂ C ⊂ D.
func chainAttrs() ([]*Attribute, map[int][]string) {
	sets := map[int][]string{
		0: {"v1"},
		1: {"v1", "v2"},
		2: {"v1", "v2", "v3"},
		3: {"v1", "v2", "v3", "v4"},
	}
	names := []string{"a", "b", "c", "d"}
	attrs := make([]*Attribute, 4)
	for i := range attrs {
		n := len(sets[i])
		attrs[i] = &Attribute{
			ID: i, Ref: relstore.ColumnRef{Table: "t", Column: names[i]},
			Rows: n, NonNull: n, Distinct: n, Unique: true,
			MinCanonical: sets[i][0], MaxCanonical: sets[i][n-1],
		}
	}
	return attrs, sets
}

// TestTransitivityFilterChainInference is the regression test for the
// inferred-outcome recording fix: once A⊆B, B⊆C and C⊆D are tested, the
// whole chain must propagate — A⊆C is inferred by rule 1, and because
// that inference is recorded, A⊆D follows from A⊆C ∧ C⊆D. Before the
// fix, inferred outcomes were never recorded, so multi-hop chains
// stopped after one inference and InferredSatisfied undercounted.
func TestTransitivityFilterChainInference(t *testing.T) {
	attrs, sets := chainAttrs()
	a, b, c, d := attrs[0], attrs[1], attrs[2], attrs[3]
	// Tested links first, then candidates decidable only by inference,
	// with A⊆C strictly before A⊆D so the chain needs the recording.
	cands := []Candidate{
		{Dep: a, Ref: b}, {Dep: b, Ref: c}, {Dep: c, Ref: d},
		{Dep: a, Ref: c}, {Dep: a, Ref: d}, {Dep: b, Ref: d},
	}

	res, err := BruteForce(cands, BruteForceOptions{
		Transitivity: true,
		Store:        memSource(attrs, sets),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cands, sets)
	if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
		t.Fatalf("Satisfied = %v, want %v", res.Satisfied, want.Satisfied)
	}
	// A⊆C (rule 1), A⊆D (rule 1 via the recorded A⊆C), B⊆D (rule 1).
	if res.Stats.InferredSatisfied != 3 {
		t.Errorf("InferredSatisfied = %d, want 3 (chain stopped propagating)", res.Stats.InferredSatisfied)
	}
}

// TestTransitivityFilterChainRefutation covers rule 2 across a recorded
// inference: with A⊆B satisfied and A⊆X refuted, B⊆X is inferred
// refuted; recording that inference then lets C⊆X... stay decided by
// tests, and the refuted count reflects every inference made.
func TestTransitivityFilterChainRefutation(t *testing.T) {
	attrs, sets := chainAttrs()
	a, b := attrs[0], attrs[1]
	// X is disjoint from the chain: everything ⊆ X is refuted.
	x := &Attribute{
		ID: 4, Ref: relstore.ColumnRef{Table: "t", Column: "x"},
		Rows: 2, NonNull: 2, Distinct: 2, Unique: true,
		MinCanonical: "w1", MaxCanonical: "w2",
	}
	sets[4] = []string{"w1", "w2"}

	cands := []Candidate{
		{Dep: a, Ref: b}, // tested: satisfied
		{Dep: a, Ref: x}, // tested: refuted
		{Dep: b, Ref: x}, // inferred refuted by rule 2
	}
	res, err := BruteForce(cands, BruteForceOptions{
		Transitivity: true,
		Store:        memSource(append(attrs, x), sets),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cands, sets)
	if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
		t.Fatalf("Satisfied = %v, want %v", res.Satisfied, want.Satisfied)
	}
	if res.Stats.InferredRefuted != 1 {
		t.Errorf("InferredRefuted = %d, want 1", res.Stats.InferredRefuted)
	}
}
