package valfile

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "attr.val")
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := tmpPath(t)
	vals := []string{"", "a", "b\nc", `d\e`, "z"}
	sort.Strings(vals)
	n, err := WriteAll(path, vals)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(vals) {
		t.Fatalf("wrote %d, want %d", n, len(vals))
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("round trip = %q, want %q", got, vals)
	}
}

func TestWriterRejectsUnsorted(t *testing.T) {
	w, err := Create(tmpPath(t))
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
	if _, err := WriteAll(path, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	var c ReadCounter
	r, err := Open(path, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatal("unexpected EOF")
		}
	}
	if r.Read() != 2 || c.Total() != 2 {
		t.Errorf("reader=%d counter=%d, want 2/2", r.Read(), c.Total())
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Read() != 3 || c.Total() != 3 {
		t.Errorf("after EOF reader=%d counter=%d, want 3/3", r.Read(), c.Total())
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
	if _, err := WriteAll(path, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	var c ReadCounter
	for i := 0; i < 3; i++ {
		r, err := Open(path, &c)
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
	var c *ReadCounter
	c.Add(5)
	if c.Total() != 0 {
		t.Error("nil counter Total must be 0")
	}
	c.Reset()
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Error("missing file must fail")
	}
}

func TestCorruptEscapeDetected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"dangling.val": "abc\\\n",
		"unknown.val":  "ab\\qcd\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Next(); ok {
			t.Errorf("%s: corrupt escape must not yield a value", name)
		}
		if r.Err() == nil {
			t.Errorf("%s: corrupt escape must surface an error", name)
		}
		r.Close()
	}
}

func TestEmptyFile(t *testing.T) {
	path := tmpPath(t)
	if _, err := WriteAll(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
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
		if _, err := WriteAll(path, vals); err != nil {
			return false
		}
		got, err := ReadAll(path)
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

// Property: escape/unescape is the identity for every string.
func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := unescape(escape(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
