package valfile

import (
	"fmt"
	"path/filepath"
	"testing"

	"spider/internal/blockfile"
)

// This file pins the range-cursor contract at its edges — block and
// record boundaries, empty files, single-value files, bounds past the
// data — identically for both encodings: OpenRange must deliver exactly
// the values its Range.Contains admits, in order, whichever backend
// serves them.

// formats enumerates the encodings every boundary test runs against.
var formats = []Format{FormatText, FormatBlock}

// writeFixture writes sorted values in the given format. Block files are
// written with TargetBlockSize 1 — one value per block — so every record
// boundary is also a block boundary and the index seek path is exercised
// at each step.
func writeFixture(t *testing.T, dir string, format Format, values []string) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("fixture-%s.val", format))
	if format == FormatText {
		if _, err := WriteAll(path, values); err != nil {
			t.Fatal(err)
		}
		return path
	}
	w, err := blockfile.Create(path, blockfile.Options{TargetBlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rangeOracle filters values by Contains: the definitional result set.
func rangeOracle(values []string, bounds Range) []string {
	var out []string
	for _, v := range values {
		if bounds.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

func readRange(t *testing.T, path string, bounds Range) []string {
	t.Helper()
	r, err := OpenRange(path, nil, bounds)
	if err != nil {
		t.Fatal(err)
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
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRangeCursorBoundaries(t *testing.T) {
	values := []string{"", "a", "ab", "abc", "b", "ba", "c", "ca", "cb", "d"}
	bounds := []Range{
		{},                                  // unbounded
		{Lo: "a"},                           // Lo on a value
		{Lo: "aa"},                          // Lo between values
		{Lo: "", Hi: "b", HasHi: true},      // Hi on a value
		{Lo: "a", Hi: "a", HasHi: true},     // empty interval
		{Lo: "ab", Hi: "ca", HasHi: true},   // both bounds on values
		{Lo: "abb", Hi: "bz", HasHi: true},  // both bounds between values
		{Lo: "d"},                           // Lo == last value
		{Lo: "dd"},                          // Lo past the last value
		{Lo: "z", Hi: "zz", HasHi: true},    // entirely past the data
		{Lo: "", Hi: "", HasHi: true},       // Hi == minimum: nothing
		{Lo: "", Hi: "\x00", HasHi: true},   // Hi just above minimum
		{Lo: "c", Hi: "c\x00", HasHi: true}, // single-value slice
	}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), format, values)
			for _, b := range bounds {
				got := readRange(t, path, b)
				want := rangeOracle(values, b)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("range %+v: got %q, want %q", b, got, want)
				}
			}
		})
	}
}

// TestRangeCursorBlockBoundaries sweeps every [values[i], values[j])
// interval over a file whose block boundaries fall at every record, so
// each combination of "Lo at block start", "Lo mid-file", "Hi at block
// start" and "Hi past end" occurs.
func TestRangeCursorBlockBoundaries(t *testing.T) {
	var values []string
	for i := 0; i < 30; i++ {
		values = append(values, fmt.Sprintf("key%04d", i*2)) // gaps between values
	}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), format, values)
			probes := append([]string{"", "key", "zzz"}, values...)
			for i := 0; i < 10; i++ { // between-value probes
				probes = append(probes, fmt.Sprintf("key%04d", i*2+1))
			}
			for _, lo := range probes {
				for _, hi := range probes {
					b := Range{Lo: lo, Hi: hi, HasHi: true}
					got := readRange(t, path, b)
					want := rangeOracle(values, b)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("range %+v: got %q, want %q", b, got, want)
					}
				}
			}
		})
	}
}

func TestRangeCursorEmptyFile(t *testing.T) {
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), format, nil)
			for _, b := range []Range{{}, {Lo: "a"}, {Lo: "a", Hi: "b", HasHi: true}} {
				if got := readRange(t, path, b); len(got) != 0 {
					t.Errorf("range %+v on empty file: got %q", b, got)
				}
			}
		})
	}
}

func TestRangeCursorSingleValue(t *testing.T) {
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), format, []string{"m"})
			for _, b := range []Range{
				{},
				{Lo: "m"},
				{Lo: "m", Hi: "m", HasHi: true},
				{Lo: "m", Hi: "m\x00", HasHi: true},
				{Lo: "n"}, // past the only value
				{Lo: "a", Hi: "m", HasHi: true},
			} {
				got := readRange(t, path, b)
				want := rangeOracle([]string{"m"}, b)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("range %+v: got %q, want %q", b, got, want)
				}
			}
		})
	}
}

// TestRangeSkippedValuesNotCounted pins the counting contract shared by
// both backends: values skipped by the lower bound are never counted,
// the counter sees exactly the delivered items.
func TestRangeSkippedValuesNotCounted(t *testing.T) {
	values := []string{"a", "b", "c", "d", "e"}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			path := writeFixture(t, t.TempDir(), format, values)
			var counter ReadCounter
			r, err := OpenRange(path, &counter, Range{Lo: "c", Hi: "e", HasHi: true})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if n != 2 || counter.Total() != 2 || r.Read() != 2 {
				t.Errorf("delivered %d, counter %d, reader %d; want 2 everywhere", n, counter.Total(), r.Read())
			}
			if counter.TotalBytes() <= 0 {
				t.Errorf("TotalBytes = %d, want > 0 after Close", counter.TotalBytes())
			}
		})
	}
}

func TestDetectFormat(t *testing.T) {
	dir := t.TempDir()
	for _, format := range formats {
		path := writeFixture(t, dir, format, []string{"x"})
		got, err := DetectFormat(path)
		if err != nil || got != format {
			t.Errorf("DetectFormat(%s) = %v, %v; want %v", path, got, err, format)
		}
	}
	// Empty and sub-magic-length files read as text (the text encoding of
	// the empty value set is the empty file).
	short := filepath.Join(dir, "short.val")
	if _, err := WriteAll(short, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := DetectFormat(short); err != nil || got != FormatText {
		t.Errorf("DetectFormat(empty) = %v, %v; want text", got, err)
	}
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"text", FormatText, true},
		{"block", FormatBlock, true},
		{"", 0, false},
		{"TEXT", 0, false},
		{"columnar", 0, false},
	} {
		got, err := ParseFormat(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestSetSectionOnTextFails(t *testing.T) {
	w, err := CreateFormat(filepath.Join(t.TempDir(), "t.val"), FormatText)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SetSection(SketchSection, []byte("x")); err == nil {
		t.Fatal("SetSection on a text writer succeeded, want error")
	}
}

func TestReadSectionTextIsAbsent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.val")
	if _, err := WriteAll(path, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	data, ok, err := ReadSection(path, SketchSection)
	if err != nil || ok || data != nil {
		t.Fatalf("ReadSection(text) = %q, %v, %v; want nil, false, nil", data, ok, err)
	}
}
