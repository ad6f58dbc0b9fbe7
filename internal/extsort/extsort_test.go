package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"spider/internal/store"
	"spider/internal/valfile"
)

func sortedDistinct(vals []string) []string {
	set := make(map[string]struct{})
	for _, v := range vals {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// sliceSink collects a drained value stream.
type sliceSink []string

func (s *sliceSink) Append(v string) error {
	*s = append(*s, v)
	return nil
}

// sortAll pushes the bag vals through a sorter configured by cfg and
// drains its sorted distinct set into a slice.
func sortAll(vals []string, cfg Config) (sorted []string, max string, err error) {
	s := New(cfg)
	defer s.Discard() // reclaims spill runs when Add fails mid-stream
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
	got, max, err := sortAll([]string{"b", "a", "c", "a", "b"}, Config{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if max != "c" || !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("sorted = %v max=%q, want [a b c]/c", got, max)
	}
}

func TestEmptyInput(t *testing.T) {
	got, max, err := sortAll(nil, Config{TempDir: t.TempDir()})
	if err != nil || len(got) != 0 || max != "" {
		t.Errorf("empty sort: %v max=%q err=%v", got, max, err)
	}
}

func TestSpillingMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("v%04d", rng.Intn(900)))
	}
	want := sortedDistinct(vals)

	for _, maxMem := range []int{1, 7, 64, 1000, 100000} {
		t.Run(fmt.Sprintf("maxMem=%d", maxMem), func(t *testing.T) {
			dir := t.TempDir()
			got, max, err := sortAll(vals, Config{MaxInMemory: maxMem, TempDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if max != want[len(want)-1] {
				t.Errorf("max = %q, want %q", max, want[len(want)-1])
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("spilled result differs from in-memory reference")
			}
			// Spill runs must be removed after DrainTo.
			assertNoRuns(t, dir)
		})
	}
}

func TestSorted(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{MaxInMemory: 3, TempDir: dir})
	for _, v := range []string{"q", "a", "q", "m", "b", "a", "z"} {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Added() != 7 {
		t.Errorf("Added = %d", s.Added())
	}
	var got sliceSink
	if _, _, meta, err := s.DrainTo(&got, nil); err != nil {
		t.Fatal(err)
	} else if meta.Added != 7 || meta.SpillRuns != 2 {
		t.Errorf("RunMeta = %+v, want 7 added over 2 spill runs", meta)
	}
	if !reflect.DeepEqual([]string(got), []string{"a", "b", "m", "q", "z"}) {
		t.Errorf("sorted = %v", got)
	}
	assertNoRuns(t, dir)
}

func TestUseAfterFinish(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{TempDir: dir})
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
	if _, err := s.Freeze(); err == nil {
		t.Error("Freeze after DrainTo must fail")
	}
}

func TestDefaultConfig(t *testing.T) {
	s := New(Config{})
	if s.cfg.MaxInMemory != DefaultMaxInMemory {
		t.Errorf("default MaxInMemory = %d", s.cfg.MaxInMemory)
	}
	if s.cfg.TempDir == "" {
		t.Error("default TempDir empty")
	}
}

// Property: for any input bag and any spill threshold, the drained
// stream is the sorted distinct set of the input.
func TestDrainToProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(vals []string, memSeed uint8) bool {
		maxMem := int(memSeed)%17 + 1
		got, _, err := sortAll(vals, Config{MaxInMemory: maxMem, TempDir: dir})
		if err != nil {
			return false
		}
		want := sortedDistinct(vals)
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCursorStreamsSortedDistinct checks the merge cursor over frozen
// runs against DrainTo: same values, same order, counted once each,
// with an intermediate merge pass in between (FanIn 4), and the spill
// runs removed once the Runs handle is closed.
func TestCursorStreamsSortedDistinct(t *testing.T) {
	dir := t.TempDir()
	vals := make([]string, 0, 600)
	for i := 0; i < 600; i++ {
		vals = append(vals, fmt.Sprintf("v%03d", i%137))
	}
	want, _, err := sortAll(vals, Config{MaxInMemory: 32, TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxInMemory: 32, FanIn: 4, TempDir: dir})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var counter valfile.ReadCounter
	cur, err := runs.Open(&counter)
	if err != nil {
		t.Fatal(err)
	}
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
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor yielded %d values, DrainTo %d; streams differ", len(got), len(want))
	}
	if counter.Total() != int64(len(want)) {
		t.Errorf("counted %d items, want %d", counter.Total(), len(want))
	}
	if err := runs.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRuns(t, dir)
}

// TestDiscard removes spill runs without producing output.
func TestDiscard(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{MaxInMemory: 4, TempDir: dir})
	for i := 0; i < 40; i++ {
		if err := s.Add(fmt.Sprintf("%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Discard()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("Discard left %d files behind", len(entries))
	}
	if _, _, _, err := s.DrainTo(&sliceSink{}, nil); err == nil {
		t.Error("DrainTo after Discard must fail")
	}
}

// TestRunsFreezeReplay covers the frozen-runs replay path: a sorter
// frozen into a Runs handle can be opened many times, with cursors open
// side by side, and every cursor yields exactly the sorted distinct set.
func TestRunsFreezeReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("v%03d", rng.Intn(120)))
	}
	want := sortedDistinct(vals)

	s := New(Config{MaxInMemory: 16, TempDir: t.TempDir()})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer runs.Close()

	var curs [2]*MergeCursor
	for i := range curs {
		if curs[i], err = runs.Open(nil); err != nil {
			t.Fatal(err)
		}
		defer curs[i].Close()
	}
	// Interleave the two cursors: each owns its run readers.
	var got [2][]string
	for live := true; live; {
		live = false
		for i, c := range curs {
			if v, ok := c.Next(); ok {
				got[i] = append(got[i], v)
				live = true
			}
		}
	}
	for i, c := range curs {
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cursor %d = %d values, want %d", i, len(got[i]), len(want))
		}
	}
	// Re-opening after draining still works (replay).
	again, err := runs.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	var replay []string
	for {
		v, ok := again.Next()
		if !ok {
			break
		}
		replay = append(replay, v)
	}
	if err := again.Err(); err != nil || !reflect.DeepEqual(replay, want) {
		t.Errorf("replay = %d values (err %v), want %d", len(replay), err, len(want))
	}
}

// TestRunsClose checks spill cleanup of frozen runs.
func TestRunsClose(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{MaxInMemory: 8, TempDir: dir})
	for i := 0; i < 100; i++ {
		if err := s.Add(fmt.Sprintf("k%02d", i%40)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := runs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := runs.Open(nil); err == nil {
		t.Error("Open after Close must fail")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("Close left %d spill files behind", len(left))
	}
}

// TestFreezeAfterFinish pins the single-finish contract.
func TestFreezeAfterFinish(t *testing.T) {
	s := New(Config{TempDir: t.TempDir()})
	if err := s.Add("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.DrainTo(&sliceSink{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Freeze(); err == nil {
		t.Error("Freeze after finish must fail")
	}
}

// TestDrainToObserved pins the observer tap: it sees every distinct
// value exactly once, in sorted order, on both the in-memory and the
// spilling path, and the drained stream is unchanged.
func TestDrainToObserved(t *testing.T) {
	for _, maxInMem := range []int{4, 1 << 16} { // spilling and in-memory
		dir := t.TempDir()
		s := New(Config{TempDir: dir, MaxInMemory: maxInMem})
		input := []string{"d", "b", "a", "c", "b", "e", "a", "f", "c"}
		for _, v := range input {
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
			t.Errorf("maxInMem=%d: observed %v, want %v", maxInMem, seen, want)
		}
		if n != len(want) || max != "f" {
			t.Errorf("maxInMem=%d: n=%d max=%q", maxInMem, n, max)
		}
		if !reflect.DeepEqual([]string(got), want) {
			t.Errorf("maxInMem=%d: drained %v, want %v", maxInMem, got, want)
		}
	}
}

// assertNoRuns fails if any extsort spill run survives in dir.
func assertNoRuns(t *testing.T, dir string) {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(dir, "extsort-run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("leaked spill runs: %v", runs)
	}
}

// TestSpillRunsCarryConfiguredFormat is the regression guard for the
// spill-run framing: with Format block every run file written by a
// spill (and by intermediate merge passes) must itself be
// block-framed, so replaying frozen runs gets the same front-coded,
// checksummed framing as final exports. An earlier draft of the block
// format wired only the final output file, leaving spill runs in the
// text encoding.
func TestSpillRunsCarryConfiguredFormat(t *testing.T) {
	for _, format := range []valfile.Format{valfile.FormatText, valfile.FormatBlock} {
		dir := t.TempDir()
		s := New(Config{MaxInMemory: 4, FanIn: 2, TempDir: dir, Format: format})
		for i := 0; i < 64; i++ {
			if err := s.Add(fmt.Sprintf("value-%03d", i%37)); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.runs) == 0 {
			t.Fatalf("%v: no spill runs written", format)
		}
		// Force an intermediate merge pass too: its output runs must
		// keep the framing.
		if err := s.mergePass(); err != nil {
			t.Fatal(err)
		}
		for _, run := range s.runs {
			have, err := valfile.DetectFormat(run)
			if err != nil {
				t.Fatalf("%v: %s: %v", format, run, err)
			}
			if have != format {
				t.Errorf("%v: spill run %s framed as %v", format, filepath.Base(run), have)
			}
		}
		out := filepath.Join(dir, "out.val")
		w, err := store.CreateFile(out, format)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.DrainTo(w, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if have, err := valfile.DetectFormat(out); err != nil || have != format {
			t.Errorf("%v: final output framed as %v (err %v)", format, have, err)
		}
	}
}

// TestDrainToMemDataset drains a spilling sorter straight into an
// in-memory dataset: the storage-seam path the mem and snapshot
// backends use.
func TestDrainToMemDataset(t *testing.T) {
	vals := []string{"pear", "apple", "fig", "apple", "kiwi", "fig", "plum", "lime"}
	s := New(Config{MaxInMemory: 2, TempDir: t.TempDir()})
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
	n, max, meta, err := s.DrainTo(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetSection(valfile.RunMetaSection, meta.Encode()); err != nil {
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
	if data, ok, err := mem.Section("drained.val", valfile.RunMetaSection); err != nil || !ok || len(data) == 0 {
		t.Fatalf("RunMeta section not carried by the mem dataset (ok=%v, err=%v)", ok, err)
	}
}

// TestPresorted: a presorted sorter drains and freezes its values as
// given, reports the added count it was built with and no spill runs,
// and refuses further values.
func TestPresorted(t *testing.T) {
	vals := []string{"apple", "fig", "kiwi"}
	s := Presorted(append([]string(nil), vals...), 5)
	if err := s.Add("pear"); err == nil {
		t.Error("Add to a presorted sorter must fail")
	}
	var got []string
	n, max, meta, err := s.DrainTo(sinkFunc(func(v string) error { got = append(got, v); return nil }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || max != "kiwi" || meta != (RunMeta{Added: 5}) || !reflect.DeepEqual(got, vals) {
		t.Errorf("DrainTo = (%d, %q, %+v, %v), want (3, kiwi, {Added:5}, %v)", n, max, meta, got, vals)
	}

	runs, err := Presorted(append([]string(nil), vals...), 5).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer runs.Close()
	if n, max, err := runs.scan(nil); n != 3 || max != "kiwi" || err != nil || len(runs.runs) != 0 {
		t.Errorf("frozen presorted sorter: n=%d max=%q err=%v runs=%d", n, max, err, len(runs.runs))
	}
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(string) error

func (f sinkFunc) Append(v string) error { return f(v) }
