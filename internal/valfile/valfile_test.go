package valfile_test

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"spider/internal/store"
	"spider/internal/valfile"
)

// These tests drive ReadCounter and the value-file contract (sorted
// distinct values, written once and read back exactly) through the
// store package's file cursor and writer, the one reader and writer of
// value files.

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "attr.val")
}

// writeAll writes an already sorted, distinct slice as a value file.
func writeAll(path string, sorted []string) (int, error) {
	w, err := store.CreateFile(path)
	if err != nil {
		return 0, err
	}
	for _, v := range sorted {
		if err := w.Append(v); err != nil {
			w.Close()
			return 0, err
		}
	}
	return w.Len(), w.Close()
}

// readAll reads every value of the value file at path.
func readAll(path string) ([]string, error) {
	r, err := store.OpenFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []string
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out, r.Err()
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := tmpPath(t)
	vals := []string{"", "a", "b\nc", `d\e`, "z"}
	sort.Strings(vals)
	n, err := writeAll(path, vals)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(vals) {
		t.Fatalf("wrote %d, want %d", n, len(vals))
	}
	got, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("round trip = %q, want %q", got, vals)
	}
}

func TestWriterRejectsUnsorted(t *testing.T) {
	w, err := store.CreateFile(tmpPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append("b"); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("a"); err == nil {
		t.Error("descending append must fail")
	}
	if err := w.Append("b"); err == nil {
		t.Error("duplicate append must fail")
	}
	if err := w.Append("c"); err != nil {
		t.Errorf("valid append after rejection failed: %v", err)
	}
}

func TestReaderCounts(t *testing.T) {
	path := tmpPath(t)
	if _, err := writeAll(path, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	var c valfile.ReadCounter
	r, err := store.OpenFile(path, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatal("unexpected EOF")
		}
	}
	if c.Total() != 2 {
		t.Errorf("counter=%d, want 2", c.Total())
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if c.Total() != 3 {
		t.Errorf("after EOF counter=%d, want 3", c.Total())
	}
	// Next after EOF stays false and does not inflate counts.
	if _, ok := r.Next(); ok {
		t.Error("Next after EOF must return !ok")
	}
	if c.Total() != 3 {
		t.Error("post-EOF Next must not count")
	}
}

func TestCounterSharedAcrossReaders(t *testing.T) {
	path := tmpPath(t)
	if _, err := writeAll(path, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	var c valfile.ReadCounter
	for i := 0; i < 3; i++ {
		r, err := store.OpenFile(path, &c)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		r.Close()
	}
	if c.Total() != 6 {
		t.Errorf("shared counter = %d, want 6", c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("Reset failed")
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *valfile.ReadCounter
	c.Add(5)
	if c.Total() != 0 {
		t.Error("nil counter Total must be 0")
	}
	c.Reset()
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := store.OpenFile(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Error("missing file must fail")
	}
}

func TestEmptyFile(t *testing.T) {
	path := tmpPath(t)
	if _, err := writeAll(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read = %q", got)
	}
}

// Property: any sorted set of strings (including ones with newlines and
// backslashes) round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(raw []string) bool {
		set := make(map[string]struct{})
		for _, s := range raw {
			set[s] = struct{}{}
		}
		vals := make([]string, 0, len(set))
		for s := range set {
			vals = append(vals, s)
		}
		sort.Strings(vals)
		i++
		path := filepath.Join(dir, "p"+string(rune('a'+i%26)))
		if _, err := writeAll(path, vals); err != nil {
			return false
		}
		got, err := readAll(path)
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for j := range got {
			if got[j] != vals[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
