package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spider/internal/blockfile"
	"spider/internal/valfile"
)

// backends returns one fresh writable dataset per backend under test,
// plus a cleanup-free label.
func backends(t *testing.T) map[string]Dataset {
	t.Helper()
	return map[string]Dataset{
		"fs-block": NewFS(t.TempDir()),
		"mem":      NewMem(),
	}
}

func writeSet(t *testing.T, ds Dataset, key string, vals []string) {
	t.Helper()
	w, err := ds.Create(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Len(); got != len(vals) {
		t.Fatalf("Len = %d, want %d", got, len(vals))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func drainCursor(t *testing.T, c Cursor) []string {
	t.Helper()
	var out []string
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendRoundTrip stages, reads and removes a value set on every
// writable backend.
func TestBackendRoundTrip(t *testing.T) {
	vals := []string{"", "a\nb", "m", "nul\x00byte", "z"}
	for name, ds := range backends(t) {
		t.Run(name, func(t *testing.T) {
			writeSet(t, ds, "a.val", vals)
			writeSet(t, ds, "b.val", []string{"x"})

			var counter valfile.ReadCounter
			cur, err := ds.Open("a.val", &counter)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainCursor(t, cur); !reflect.DeepEqual(got, vals) {
				t.Errorf("values = %q, want %q", got, vals)
			}
			if counter.Total() != int64(len(vals)) {
				t.Errorf("counted %d items, want %d", counter.Total(), len(vals))
			}
			if counter.TotalBytes() == 0 {
				t.Error("no bytes counted")
			}

			if _, err := ds.Open("missing.val", nil); err == nil {
				t.Error("opening a missing key must fail")
			}
			if err := ds.Remove("b.val"); err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Open("b.val", nil); err == nil {
				t.Error("removed key must not open")
			}
			if err := ds.Remove("b.val"); err == nil {
				t.Error("removing an absent key must fail")
			}
		})
	}
}

// TestBackendCreateReplaces re-stages a key: the new value set must
// fully replace the old one on every backend.
func TestBackendCreateReplaces(t *testing.T) {
	for name, ds := range backends(t) {
		t.Run(name, func(t *testing.T) {
			writeSet(t, ds, "k.val", []string{"old1", "old2", "old3"})
			writeSet(t, ds, "k.val", []string{"new"})
			cur, err := ds.Open("k.val", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainCursor(t, cur); !reflect.DeepEqual(got, []string{"new"}) {
				t.Errorf("values after replace = %q", got)
			}
		})
	}
}

// TestBackendSortedDistinctEnforced rejects out-of-order and duplicate
// appends on every backend.
func TestBackendSortedDistinctEnforced(t *testing.T) {
	for name, ds := range backends(t) {
		t.Run(name, func(t *testing.T) {
			w, err := ds.Create("k.val")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append("b"); err != nil {
				t.Fatal(err)
			}
			if err := w.Append("a"); err == nil {
				t.Error("out-of-order append must fail")
			}
			if err := w.Append("b"); err == nil {
				t.Error("duplicate append must fail")
			}
			w.Close()
		})
	}
}

// TestBackendSections checks section storage per backend: block files
// embed any tag, mem carries everything.
func TestBackendSections(t *testing.T) {
	sketchData := []byte("sketch-payload")
	metaData := []byte("meta-payload")
	stage := func(t *testing.T, ds Dataset) {
		w, err := ds.Create("k.val")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append("v"); err != nil {
			t.Fatal(err)
		}
		if err := w.SetSection(valfile.SketchSection, sketchData); err != nil {
			t.Fatal(err)
		}
		if err := w.SetSection(valfile.RunMetaSection, metaData); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("fs-block", func(t *testing.T) {
		ds := NewFS(t.TempDir())
		stage(t, ds)
		for tag, want := range map[string][]byte{
			valfile.SketchSection:  sketchData,
			valfile.RunMetaSection: metaData,
		} {
			data, ok, err := ds.Section("k.val", tag)
			if err != nil || !ok || !reflect.DeepEqual(data, want) {
				t.Errorf("%s section = (%q, %v, %v)", tag, data, ok, err)
			}
		}
	})

	t.Run("mem", func(t *testing.T) {
		ds := NewMem()
		stage(t, ds)
		for tag, want := range map[string][]byte{
			valfile.SketchSection:  sketchData,
			valfile.RunMetaSection: metaData,
		} {
			data, ok, err := ds.Section("k.val", tag)
			if err != nil || !ok || !reflect.DeepEqual(data, want) {
				t.Errorf("%s section = (%q, %v, %v)", tag, data, ok, err)
			}
		}
		if _, ok, err := ds.Section("k.val", "NOPE"); ok || err != nil {
			t.Errorf("absent section = (%v, %v)", ok, err)
		}
	})
}

// TestFSRejectsTextFiles: value files in the text encoding — two
// values, a first value that is empty so the file starts with '\n' like
// the block magic, and the empty file — are not read. Open and Section
// fail with an error that names the file and valconvert; no cursor
// comes back.
func TestFSRejectsTextFiles(t *testing.T) {
	dir := t.TempDir()
	ds := NewFS(dir)
	for key, content := range map[string]string{
		"plain.val":   "alpha\nbeta\n",
		"newline.val": "\nalpha\n",
		"empty.val":   "",
	} {
		path := filepath.Join(dir, key)
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
		check := func(op string, err error) {
			t.Helper()
			if err == nil || !errors.Is(err, blockfile.ErrNoMagic) ||
				!strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "valconvert -format block") {
				t.Errorf("%s(%s) = %v, want an error naming the file and valconvert", op, key, err)
			}
		}
		cur, err := ds.Open(key, nil)
		if cur != nil {
			cur.Close()
			t.Errorf("Open(%s) returned a cursor", key)
		}
		check("Open", err)
		_, ok, err := ds.Section(key, valfile.SketchSection)
		if ok {
			t.Errorf("Section(%s) found a section", key)
		}
		check("Section", err)
	}
}

// TestSnapshotReadOnly pins the ErrReadOnly contract.
func TestSnapshotReadOnly(t *testing.T) {
	snap := NewSnapshot(NewMem())
	if _, err := snap.Create("k.val"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Create err = %v, want ErrReadOnly", err)
	}
	if err := snap.Remove("k.val"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Remove err = %v, want ErrReadOnly", err)
	}
}

// TestSnapshotReadThrough: a view reads the Mem as it is now. A key
// staged after the view was taken is visible, a key replaced or removed
// in the Mem is what the next Open sees — the property the n-ary and
// embedded scratch writes rely on — and an already open cursor keeps
// the slice it started on.
func TestSnapshotReadThrough(t *testing.T) {
	base := NewMem()
	base.SetValues("early.val", []string{"e"})
	snap := NewSnapshot(base)
	if got := mustDrain(t, snap, "early.val"); !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("early = %q", got)
	}
	base.SetValues("late.val", []string{"l1", "l2"})
	if got := mustDrain(t, snap, "late.val"); !reflect.DeepEqual(got, []string{"l1", "l2"}) {
		t.Errorf("late = %q", got)
	}

	held, err := snap.Open("early.val", nil)
	if err != nil {
		t.Fatal(err)
	}
	writeSet(t, base, "early.val", []string{"changed", "twice"})
	if got := mustDrain(t, snap, "early.val"); !reflect.DeepEqual(got, []string{"changed", "twice"}) {
		t.Errorf("after a base overwrite early = %q", got)
	}
	if err := base.Remove("early.val"); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Open("early.val", nil); err == nil {
		t.Error("Open of a key removed from the base succeeded")
	}
	if _, _, err := snap.Section("early.val", valfile.SketchSection); err == nil {
		t.Error("Section of a key removed from the base succeeded")
	}
	if got := drainCursor(t, held); !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("cursor opened before the overwrite read %q", got)
	}
}

func mustDrain(t *testing.T, ds Dataset, key string) []string {
	t.Helper()
	cur, err := ds.Open(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return drainCursor(t, cur)
}

// TestSnapshotConcurrentReaders hammers one view with concurrent
// readers (full cursors and Contains probes, across keys) — run under
// -race this is the shared-slice safety property the indserved daemon
// needs. 16 readers exceed the ≥8 acceptance bar.
func TestSnapshotConcurrentReaders(t *testing.T) {
	base := NewMem()
	want := make(map[string][]string)
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("a%02d.val", k)
		var vals []string
		for i := 0; i < 200; i++ {
			vals = append(vals, fmt.Sprintf("k%d-value-%04d", k, i))
		}
		writeSet(t, base, key, vals)
		want[key] = vals
	}
	snap := NewSnapshot(base)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			key := fmt.Sprintf("a%02d.val", r%4)
			expect := want[key]
			if r%3 == 0 {
				for i, v := range expect {
					// Present values, and absent ones sorting between them.
					if ok, err := snap.Contains(key, v); err != nil || !ok {
						errs <- fmt.Errorf("reader %d: Contains(%q) = %v, %v", r, v, ok, err)
					}
					if ok, err := snap.Contains(key, v+"~"); err != nil || ok {
						errs <- fmt.Errorf("reader %d: Contains(%q) = %v, %v at %d", r, v+"~", ok, err, i)
					}
				}
				return
			}
			var counter valfile.ReadCounter
			cur, err := snap.Open(key, &counter)
			if err != nil {
				errs <- err
				return
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
				errs <- err
			}
			if err := cur.Close(); err != nil {
				errs <- err
			}
			if !reflect.DeepEqual(got, expect) {
				errs <- fmt.Errorf("reader %d: got %d values, want %d", r, len(got), len(expect))
			}
			if counter.Total() != int64(len(expect)) {
				errs <- fmt.Errorf("reader %d: counted %d", r, counter.Total())
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFSRejectsNonPlainKeys pins the key rule: a plain name joins
// under the root, and every other key fails on Open, Create, Remove and
// Section — even when it names a readable value file outside the root.
func TestFSRejectsNonPlainKeys(t *testing.T) {
	dir := t.TempDir()
	writeSet(t, NewFS(dir), "x.val", []string{"a"})
	ds := NewFS(filepath.Join(dir, "root"))
	writeSet(t, ds, "a.val", []string{"b"})
	if _, err := os.Stat(filepath.Join(dir, "root", "a.val")); err != nil {
		t.Fatalf("plain key not joined under the root: %v", err)
	}
	for _, key := range []string{
		"", ".", "..", "../x.val", filepath.Join(dir, "x.val"), "/etc/passwd", "sub/a.val",
		string(os.PathSeparator) + "a.val",
	} {
		if _, err := ds.Open(key, nil); err == nil {
			t.Errorf("Open(%q) succeeded", key)
		}
		if _, err := ds.Create(key); err == nil {
			t.Errorf("Create(%q) succeeded", key)
		}
		if err := ds.Remove(key); err == nil {
			t.Errorf("Remove(%q) succeeded", key)
		}
		if _, _, err := ds.Section(key, valfile.SketchSection); err == nil {
			t.Errorf("Section(%q) succeeded", key)
		}
		if err := CheckKey(key); err == nil {
			t.Errorf("CheckKey(%q) accepted", key)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.val")); err != nil {
		t.Errorf("a rejected Remove touched the file outside the root: %v", err)
	}
	if _, err := NewFS("").Open("a.val", nil); err == nil {
		t.Error("an FS without a root opened a key")
	}
}

// TestMemWriterDoubleClose pins the exactly-once close contract.
func TestMemWriterDoubleClose(t *testing.T) {
	mem := NewMem()
	w, err := mem.Create("k.val")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("second Close must fail")
	}
}

// TestSnapshotServingHelpers covers CacheStats, the occupancy the
// serving daemon's metrics endpoint reports: it counts what the viewed
// Mem holds, keys staged or removed after the view was taken included.
func TestSnapshotServingHelpers(t *testing.T) {
	base := NewMem()
	snap := NewSnapshot(base)
	if st := snap.CacheStats(); st != (CacheStats{}) {
		t.Errorf("stats of an empty Mem = %+v", st)
	}
	base.SetValues("a.val", []string{"1", "2", "3"})
	w, err := base.Create("b.val")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("x"); err != nil {
		t.Fatal(err)
	}
	if err := w.SetSection(valfile.SketchSection, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := snap.CacheStats(); st != (CacheStats{Keys: 2, Values: 4, Sections: 1}) {
		t.Errorf("stats = %+v", st)
	}
	if err := base.Remove("b.val"); err != nil {
		t.Fatal(err)
	}
	if st := snap.CacheStats(); st != (CacheStats{Keys: 1, Values: 3}) {
		t.Errorf("stats after a remove = %+v", st)
	}
}

// TestSnapshotHoldsOneCopy pins that a view copies no values: opening
// and probing every key through a fresh view allocates in proportion to
// the number of keys, the same for a Mem of 100 values per key as for
// one of 10,000.
func TestSnapshotHoldsOneCopy(t *testing.T) {
	const keys = 8
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("a%d.val", k)
	}
	allocs := func(perKey int) float64 {
		mem := NewMem()
		for k, key := range names {
			vals := make([]string, perKey)
			for i := range vals {
				vals[i] = fmt.Sprintf("k%d-%06d", k, i)
			}
			mem.SetValues(key, vals)
		}
		return testing.AllocsPerRun(20, func() {
			snap := NewSnapshot(mem)
			for _, key := range names {
				cur, err := snap.Open(key, nil)
				if err != nil {
					t.Fatal(err)
				}
				cur.Close()
				if _, err := snap.Contains(key, "k0-000001"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large {
		t.Errorf("allocs per run: %v over %d×100 values, %v over %d×10,000", small, keys, large, keys)
	}
	// One cursor per Open, and the view itself.
	if limit := float64(keys + 1); large > limit {
		t.Errorf("allocs per run = %v, want at most %v for %d keys", large, limit, keys)
	}
}

// TestSnapshotContains checks the point probe against a binary-search
// oracle over the same sorted set, on the edges of the value space.
func TestSnapshotContains(t *testing.T) {
	sets := map[string][]string{
		"empty.val":  nil,
		"blank.val":  {"", "a", "a\x00", "b"},
		"middle.val": {"b", "ba", "m", "z\xff"},
	}
	cases := []struct {
		name, key, v string
	}{
		{"empty set", "empty.val", "a"},
		{"empty set, blank value", "empty.val", ""},
		{"blank value present", "blank.val", ""},
		{"blank value absent", "middle.val", ""},
		{"below the minimum", "middle.val", "a"},
		{"the minimum", "middle.val", "b"},
		{"between neighbours", "middle.val", "bb"},
		{"the maximum", "middle.val", "z\xff"},
		{"above the maximum", "middle.val", "zz"},
		{"prefix pair, shorter", "blank.val", "a"},
		{"prefix pair, longer", "blank.val", "a\x00"},
		{"after the prefix pair", "blank.val", "a\x01"},
		{"prefix of a value", "middle.val", "z"},
	}
	base := NewMem()
	for key, vals := range sets {
		base.SetValues(key, vals)
	}
	snap := NewSnapshot(base)
	for _, c := range cases {
		got, err := snap.Contains(c.key, c.v)
		if err != nil {
			t.Fatalf("%s: Contains(%s, %q): %v", c.name, c.key, c.v, err)
		}
		if _, want := slices.BinarySearch(sets[c.key], c.v); got != want {
			t.Errorf("%s: Contains(%s, %q) = %v, want %v", c.name, c.key, c.v, got, want)
		}
	}

	// A key staged after the view was taken is probed; an unknown key
	// errors.
	base.SetValues("late.val", []string{"x"})
	if ok, err := snap.Contains("late.val", "x"); err != nil || !ok {
		t.Errorf("Contains(late.val, x) = %v, %v; want true", ok, err)
	}
	if _, err := snap.Contains("missing.val", "a"); err == nil {
		t.Error("Contains on an unknown key must fail")
	}
}
