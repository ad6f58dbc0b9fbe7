package valfile

import (
	"fmt"
	"path/filepath"
	"testing"

	"spider/internal/blockfile"
)

// This file pins the cursor contract at its edges — block and record
// boundaries, empty files, single-value files — identically for both
// encodings: a Reader delivers exactly the values written, in order,
// and counts each one, whichever backend serves them.

// formats enumerates the encodings every boundary test runs against.
var formats = []Format{FormatText, FormatBlock}

// writeFixture writes sorted values in the given format. Block files are
// written with TargetBlockSize 1 — one value per block — so every record
// boundary is also a block boundary.
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

// TestCursorBoundaries reads empty, single-value and multi-block files
// front to back: the delivered stream equals the written one, and the
// shared counter, the reader's own count and the byte tally agree.
func TestCursorBoundaries(t *testing.T) {
	var gapped []string
	for i := 0; i < 30; i++ {
		gapped = append(gapped, fmt.Sprintf("key%04d", i*2))
	}
	fixtures := [][]string{
		nil,
		{"m"},
		{"", "a", "ab", "abc", "b", "ba", "c", "ca", "cb", "d"},
		gapped,
	}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			for _, values := range fixtures {
				path := writeFixture(t, t.TempDir(), format, values)
				var counter ReadCounter
				r, err := Open(path, &counter)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for {
					v, ok := r.Next()
					if !ok {
						break
					}
					got = append(got, v)
				}
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(values) {
					t.Errorf("read %q, want %q", got, values)
				}
				n := int64(len(values))
				if counter.Total() != n || r.Read() != n {
					t.Errorf("%d values: counter %d, reader %d", n, counter.Total(), r.Read())
				}
				if n > 0 && counter.TotalBytes() <= 0 {
					t.Errorf("%d values: TotalBytes = %d, want > 0 after Close", n, counter.TotalBytes())
				}
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
