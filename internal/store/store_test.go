package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spider/internal/sketch"
	"spider/internal/valfile"
)

// backends returns one fresh writable dataset per backend under test,
// plus a cleanup-free label.
func backends(t *testing.T) map[string]Dataset {
	t.Helper()
	return map[string]Dataset{
		"fs-text":  NewFS(t.TempDir(), valfile.FormatText),
		"fs-block": NewFS(t.TempDir(), valfile.FormatBlock),
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
// embed any tag, text files persist the sketch as a sidecar and drop
// the rest (the historical behaviour), mem carries everything.
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

	t.Run("fs-text", func(t *testing.T) {
		dir := t.TempDir()
		ds := NewFS(dir, valfile.FormatText)
		stage(t, ds)
		data, ok, err := ds.Section("k.val", valfile.SketchSection)
		if err != nil || !ok || !reflect.DeepEqual(data, sketchData) {
			t.Errorf("sketch section = (%q, %v, %v)", data, ok, err)
		}
		// The sidecar file is the on-disk representation.
		if _, err := os.Stat(filepath.Join(dir, "k.val"+sketch.FileSuffix)); err != nil {
			t.Errorf("sketch sidecar missing: %v", err)
		}
		if _, ok, _ := ds.Section("k.val", valfile.RunMetaSection); ok {
			t.Error("text encoding must drop non-sketch sections")
		}
		// Remove takes the sidecar with it.
		if err := ds.Remove("k.val"); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "k.val"+sketch.FileSuffix)); !os.IsNotExist(err) {
			t.Errorf("sidecar survived Remove: %v", err)
		}
	})

	t.Run("fs-block", func(t *testing.T) {
		ds := NewFS(t.TempDir(), valfile.FormatBlock)
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

// TestFSAutoDetectsPerFile mixes encodings in one directory: reads
// auto-detect each file's framing regardless of the dataset's write
// format.
func TestFSAutoDetectsPerFile(t *testing.T) {
	dir := t.TempDir()
	text := NewFS(dir, valfile.FormatText)
	block := NewFS(dir, valfile.FormatBlock)
	writeSet(t, text, "t.val", []string{"1", "2"})
	writeSet(t, block, "b.val", []string{"3", "4"})
	// Each handle reads both files.
	for _, ds := range []Dataset{text, block} {
		for key, want := range map[string][]string{"t.val": {"1", "2"}, "b.val": {"3", "4"}} {
			cur, err := ds.Open(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainCursor(t, cur); !reflect.DeepEqual(got, want) {
				t.Errorf("%s = %q, want %q", key, got, want)
			}
		}
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

// TestSnapshotReadThrough: keys staged in the base after the snapshot
// was taken fault into the cache on first open — the property the
// n-ary and embedded scratch writes rely on.
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
	// Cached keys are immutable: a base overwrite is not observed.
	base.SetValues("early.val", []string{"changed"})
	if got := mustDrain(t, snap, "early.val"); !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("cached key changed after base overwrite: %q", got)
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

// TestSnapshotConcurrentReaders hammers one snapshot with concurrent
// readers (full cursors and Contains probes, across keys) — run under
// -race this is the pooled-cursor safety property the indserved daemon
// needs. 16 readers exceed the ≥8 acceptance bar.
func TestSnapshotConcurrentReaders(t *testing.T) {
	base := NewFS(t.TempDir(), valfile.FormatBlock)
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

// TestFSPathResolution pins the key-resolution contract: plain names
// join under the root, path-like keys pass through verbatim.
func TestFSPathResolution(t *testing.T) {
	ds := NewFS("/root/data", valfile.FormatText)
	if got := ds.Path("a.val"); got != filepath.Join("/root/data", "a.val") {
		t.Errorf("plain key resolved to %q", got)
	}
	if got := ds.Path("/abs/b.val"); got != "/abs/b.val" {
		t.Errorf("absolute key resolved to %q", got)
	}
	rel := filepath.Join("derived", "c.val")
	if got := ds.Path(rel); got != rel {
		t.Errorf("path-like key resolved to %q", got)
	}
	unrooted := NewFS("", valfile.FormatText)
	if got := unrooted.Path("a.val"); got != "a.val" {
		t.Errorf("unrooted key resolved to %q", got)
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

// TestSnapshotServingHelpers covers the read-path additions the serving
// daemon uses: Len, Cached, Warm and CacheStats.
func TestSnapshotServingHelpers(t *testing.T) {
	base := NewMem()
	base.SetValues("a.val", []string{"1", "2", "3"})
	base.SetValues("b.val", []string{"x"})
	snap := NewSnapshot(base)

	if snap.Cached("a.val") {
		t.Error("a.val cached before any read")
	}
	if st := snap.CacheStats(); st.Keys != 0 {
		t.Errorf("fresh stats = %+v", st)
	}

	if n, err := snap.Len("a.val"); err != nil || n != 3 {
		t.Fatalf("Len(a.val) = %d, %v", n, err)
	}
	if !snap.Cached("a.val") || snap.Cached("b.val") {
		t.Error("Len must fault only its key into the cache")
	}

	if err := snap.Warm([]string{"a.val", "b.val"}); err != nil {
		t.Fatal(err)
	}
	if !snap.Cached("b.val") {
		t.Error("Warm missed b.val")
	}
	st := snap.CacheStats()
	if st.Keys != 2 || st.Values != 4 {
		t.Errorf("stats after warm = %+v", st)
	}

	if _, err := snap.Len("missing.val"); err == nil {
		t.Error("Len of a missing key must fail")
	}
	if err := snap.Warm([]string{"missing.val"}); err == nil {
		t.Error("Warm of a missing key must fail")
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

	// A key is faulted in on its first probe; an unknown key errors.
	base.SetValues("late.val", []string{"x"})
	if snap.Cached("late.val") {
		t.Fatal("late.val cached before its first probe")
	}
	if ok, err := snap.Contains("late.val", "x"); err != nil || !ok {
		t.Errorf("Contains(late.val, x) = %v, %v; want true", ok, err)
	}
	if !snap.Cached("late.val") {
		t.Error("Contains did not fault late.val in")
	}
	if _, err := snap.Contains("missing.val", "a"); err == nil {
		t.Error("Contains on an unknown key must fail")
	}
}
