package extsort

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"spider/internal/store"
	"spider/internal/valfile"
)

func sortedDistinct(vals []string) []string {
	return slices.Compact(slices.Sorted(slices.Values(vals)))
}

// sliceSink collects a drained value stream.
type sliceSink []string

func (s *sliceSink) Append(v string) error {
	*s = append(*s, v)
	return nil
}

// sortAll pushes the bag vals through a sorter and drains its sorted
// distinct set into a slice.
func sortAll(vals []string) (sorted []string, max string, err error) {
	s := New(Config{})
	defer s.Discard()
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			return nil, "", err
		}
	}
	var sink sliceSink
	n, max, _, err := s.DrainTo(&sink, nil)
	if err == nil && n != len(sink) {
		err = fmt.Errorf("DrainTo reported %d values, delivered %d", n, len(sink))
	}
	return sink, max, err
}

func TestInMemorySmall(t *testing.T) {
	got, max, err := sortAll([]string{"b", "a", "c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if max != "c" || !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("sorted = %v max=%q, want [a b c]/c", got, max)
	}
}

func TestEmptyInput(t *testing.T) {
	got, max, err := sortAll(nil)
	if err != nil || len(got) != 0 || max != "" {
		t.Errorf("empty sort: %v max=%q err=%v", got, max, err)
	}
}

// TestSorted pins the provenance DrainTo reports: every value added,
// duplicates included, and no spill runs.
func TestSorted(t *testing.T) {
	s := New(Config{})
	for _, v := range []string{"q", "a", "q", "m", "b", "a", "z"} {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	var got sliceSink
	if _, _, meta, err := s.DrainTo(&got, nil); err != nil {
		t.Fatal(err)
	} else if meta != (valfile.RunMeta{Added: 7}) {
		t.Errorf("RunMeta = %+v, want 7 added and no spill runs", meta)
	}
	if !reflect.DeepEqual([]string(got), []string{"a", "b", "m", "q", "z"}) {
		t.Errorf("sorted = %v", got)
	}
}

func TestUseAfterFinish(t *testing.T) {
	s := New(Config{})
	if err := s.Add("x"); err != nil {
		t.Fatal(err)
	}
	var sink sliceSink
	if _, _, _, err := s.DrainTo(&sink, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("y"); err == nil {
		t.Error("Add after DrainTo must fail")
	}
	if _, _, _, err := s.DrainTo(&sink, nil); err == nil {
		t.Error("second DrainTo must fail")
	}
}

// Property: for any input bag, the drained stream is the sorted
// distinct set of the input.
func TestDrainToProperty(t *testing.T) {
	f := func(vals []string) bool {
		got, _, err := sortAll(vals)
		return err == nil && slices.Equal(got, sortedDistinct(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDiscard finishes a sorter without output.
func TestDiscard(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 40; i++ {
		if err := s.Add(fmt.Sprintf("%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Discard()
	s.Discard()
	if _, _, _, err := s.DrainTo(&sliceSink{}, nil); err == nil {
		t.Error("DrainTo after Discard must fail")
	}
}

// TestDrainToObserved pins the observer tap: it sees every distinct
// value exactly once, in sorted order, and the drained stream is
// unchanged.
func TestDrainToObserved(t *testing.T) {
	s := New(Config{})
	for _, v := range []string{"d", "b", "a", "c", "b", "e", "a", "f", "c"} {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	var got sliceSink
	n, max, _, err := s.DrainTo(&got, func(v string) { seen = append(seen, v) })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observed %v, want %v", seen, want)
	}
	if n != len(want) || max != "f" {
		t.Errorf("n=%d max=%q", n, max)
	}
	if !reflect.DeepEqual([]string(got), want) {
		t.Errorf("drained %v, want %v", got, want)
	}
}

// TestDrainToMemDataset drains a sorter straight into an in-memory
// dataset, the way the benchmark module uses it.
func TestDrainToMemDataset(t *testing.T) {
	vals := []string{"pear", "apple", "fig", "apple", "kiwi", "fig", "plum", "lime"}
	s := New(Config{})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	mem := store.NewMem()
	w, err := mem.Create("drained.val")
	if err != nil {
		t.Fatal(err)
	}
	n, max, _, err := s.DrainTo(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := sortedDistinct(vals)
	if n != len(want) || max != want[len(want)-1] {
		t.Fatalf("DrainTo = (%d, %q), want (%d, %q)", n, max, len(want), want[len(want)-1])
	}
	cur, err := mem.Open("drained.val", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained values = %v, want %v", got, want)
	}
}
