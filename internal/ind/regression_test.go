package ind

import (
	"reflect"
	"strings"
	"testing"

	"spider/internal/relstore"
)

// Every engine documents its Counter as "nil disables external
// counting"; calling them without one must neither panic nor change the
// satisfied set, and ItemsRead must come back zero.
func TestEnginesNilCounterSafe(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})

	want, err := BruteForce(cands, BruteForceOptions{Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"brute-force", func() (*Result, error) { return BruteForce(cands, BruteForceOptions{Store: ds}) }},
		{"single-pass", func() (*Result, error) { return SinglePass(cands, SinglePassOptions{Store: ds}) }},
		{"single-pass-blocked", func() (*Result, error) {
			return SinglePassBlocked(cands, BlockedOptions{Store: ds, DepBlock: 2, RefBlock: 2})
		}},
		{"spider-merge", func() (*Result, error) { return SpiderMerge(cands, SpiderMergeOptions{Store: ds}) }},
	}
	for _, e := range engines {
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s with nil Counter: %v", e.name, err)
		}
		if !reflect.DeepEqual(res.Satisfied, want.Satisfied) {
			t.Errorf("%s with nil Counter changed results", e.name)
		}
		if res.Stats.ItemsRead != 0 {
			t.Errorf("%s: nil Counter must disable counting, got ItemsRead = %d", e.name, res.Stats.ItemsRead)
		}
	}
}

// The partial engines share the same nil-Counter contract.
func TestPartialEnginesNilCounterSafe(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{PartialThreshold: 0.8})

	want, err := BruteForcePartial(cands, PartialOptions{Store: ds, Threshold: 0.8})
	if err != nil {
		t.Fatalf("brute-force-partial with nil Counter: %v", err)
	}
	if want.Stats.ItemsRead != 0 {
		t.Errorf("brute-force-partial: nil Counter must disable counting, got %d", want.Stats.ItemsRead)
	}
	merge, err := PartialSpiderMerge(cands, 0.8, SpiderMergeOptions{Store: ds})
	if err != nil {
		t.Fatalf("partial-merge with nil Counter: %v", err)
	}
	if !reflect.DeepEqual(merge.Satisfied, want.Satisfied) {
		t.Error("nil Counter changed partial results")
	}
	if merge.Stats.ItemsRead != 0 {
		t.Error("partial merge: nil Counter must disable counting")
	}
}

// FindEmbedded also promises "nil disables external counting".
func TestFindEmbeddedNilCounterSafe(t *testing.T) {
	db := buildDB(t)
	attrs, ds := prepare(t, db)
	res, err := FindEmbedded(db, attrs, EmbeddedOptions{Scratch: ds, Store: ds})
	if err != nil {
		t.Fatalf("FindEmbedded with nil Counter: %v", err)
	}
	if res.Stats.ItemsRead != 0 {
		t.Errorf("FindEmbedded: nil Counter must disable counting, got %d", res.Stats.ItemsRead)
	}
}

// SamplingPretest must report an unknown table like the rest of the
// package instead of dereferencing a nil *Table — on the dependent
// (sampleOf) and the referenced (refSetOf) side alike.
func TestSamplingPretestUnknownTable(t *testing.T) {
	db := buildDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	ghost := &Attribute{
		ID:  len(attrs),
		Ref: relstore.ColumnRef{Table: "ghost", Column: "x"},
		// Plausible stats so the candidate is not trivially skipped.
		Rows: 5, NonNull: 5, Distinct: 5,
	}
	for _, tc := range []struct {
		name string
		cand Candidate
	}{
		{"unknown dependent table", Candidate{Dep: ghost, Ref: attrs[0]}},
		{"unknown referenced table", Candidate{Dep: attrs[0], Ref: ghost}},
	} {
		_, _, err := SamplingPretest(db, []Candidate{tc.cand}, SamplingOptions{})
		if err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Errorf("%s: err = %v, want unknown-table error", tc.name, err)
		}
	}
}
