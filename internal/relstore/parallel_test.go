package relstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setGOMAXPROCS sets GOMAXPROCS, and with it Parallel's width, to n
// until the test ends.
func setGOMAXPROCS(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// runCounts calls Parallel over n indices with fn wrapped to count how
// often each index ran.
func runCounts(n int, fn func(i int) error) ([]atomic.Int32, error) {
	counts := make([]atomic.Int32, n)
	err := Parallel(n, func(i int) error {
		counts[i].Add(1)
		return fn(i)
	})
	return counts, err
}

// TestParallelRunsEveryIndexOnce: with no failure every index runs
// exactly once, sequentially and on a four-wide pool, and an empty
// range calls nothing.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setGOMAXPROCS(t, procs)
		for _, n := range []int{0, 1, 3, 100} {
			counts, err := runCounts(n, func(int) error { return nil })
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d n=%d: %v", procs, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
}

// TestParallelSequentialStopsAtFailure: at width 1 the indices run in
// order, so a failure at index 3 is the error returned and no later
// index runs.
func TestParallelSequentialStopsAtFailure(t *testing.T) {
	setGOMAXPROCS(t, 1)
	boom := errors.New("boom")
	counts, err := runCounts(10, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for i := range counts {
		want := int32(0)
		if i <= 3 {
			want = 1
		}
		if c := counts[i].Load(); c != want {
			t.Errorf("index %d ran %d times, want %d", i, c, want)
		}
	}
}

// TestParallelPoolReturnsAnError: on a four-wide pool with several
// failing indices every index runs at most once and the returned error
// is one that fn returned.
func TestParallelPoolReturnsAnError(t *testing.T) {
	setGOMAXPROCS(t, 4)
	failures := map[int]error{}
	for _, i := range []int{3, 17, 50, 99} {
		failures[i] = fmt.Errorf("index %d failed", i)
	}
	for round := 0; round < 20; round++ {
		counts, err := runCounts(100, func(i int) error { return failures[i] })
		found := false
		for _, f := range failures {
			found = found || err == f
		}
		if !found {
			t.Fatalf("round %d: err = %v, not an error fn returned", round, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c > 1 {
				t.Errorf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
}
