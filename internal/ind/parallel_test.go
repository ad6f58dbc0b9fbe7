package ind

import (
	"reflect"
	"testing"
)

// BruteForceParallel must agree with BruteForce on every topology and
// worker count.
func TestBruteForceParallelMatches(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := randomDB(seed)
		attrs, err := Prepare(db, ExportConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		cands, _ := GenerateCandidates(attrs, GenOptions{})
		want, err := BruteForce(cands, BruteForceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := BruteForceParallel(cands, ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Satisfied, want.Satisfied) {
				t.Errorf("seed %d workers %d: results differ", seed, workers)
			}
			if got.Stats.MaxOpenFiles != 2*workers {
				t.Errorf("MaxOpenFiles = %d, want %d", got.Stats.MaxOpenFiles, 2*workers)
			}
		}
	}
}

func TestBruteForceParallelErrors(t *testing.T) {
	db := buildDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	if _, err := BruteForceParallel(cands, ParallelOptions{}); err == nil {
		t.Error("unexported attributes must fail")
	}
	attrs2 := prepare(t, db)
	cands2, _ := GenerateCandidates(attrs2, GenOptions{})
	for _, a := range attrs2 {
		if err := writeCorrupt(a.Path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BruteForceParallel(cands2, ParallelOptions{Workers: 4}); err == nil {
		t.Error("corrupt files must surface an error")
	}
}
