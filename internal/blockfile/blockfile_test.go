package blockfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func writeFile(t *testing.T, vals []string, opts Options, sections map[string][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "attr.val")
	w, err := Create(path, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			t.Fatalf("Append(%q): %v", v, err)
		}
	}
	tags := make([]string, 0, len(sections))
	for tag := range sections {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		if err := w.SetSection(tag, sections[tag]); err != nil {
			t.Fatalf("SetSection(%q): %v", tag, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func readAll(t *testing.T, path string) []string {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	var got []string
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	return got
}

// genVals builds n sorted distinct values with long shared prefixes,
// the shape n-ary tuple streams have.
func genVals(n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("shared/prefix/for/front/coding/%08d", i)
	}
	return vals
}

func TestRoundtrip(t *testing.T) {
	cases := map[string][]string{
		"empty":        {},
		"single":       {"only"},
		"emptyString":  {"", "a", "b"},
		"binary":       {"a\x00b", "a\x00c", "a\nnewline", "b\\backslash", "\xf5\xffhigh"},
		"magicPrefix":  {string(Magic[:]) + "value", string(Magic[:]) + "value2"},
		"prefixChains": {"a", "ab", "abc", "abcd", "abd", "b"},
		"many":         genVals(5000),
	}
	for name, vals := range cases {
		for _, target := range []int{0, 1, 64} {
			t.Run(fmt.Sprintf("%s/target%d", name, target), func(t *testing.T) {
				path := writeFile(t, vals, Options{TargetBlockSize: target}, nil)
				got := readAll(t, path)
				if len(got) != len(vals) {
					t.Fatalf("got %d values, want %d", len(got), len(vals))
				}
				for i := range vals {
					if got[i] != vals[i] {
						t.Fatalf("value %d: got %q, want %q", i, got[i], vals[i])
					}
				}
			})
		}
	}
}

func TestMeta(t *testing.T) {
	vals := genVals(100)
	path := writeFile(t, vals, Options{TargetBlockSize: 128}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Count() != int64(len(vals)) {
		t.Errorf("Count = %d, want %d", r.Count(), len(vals))
	}
	if r.First() != vals[0] {
		t.Errorf("First = %q, want %q", r.First(), vals[0])
	}
	if r.Max() != vals[len(vals)-1] {
		t.Errorf("Max = %q, want %q", r.Max(), vals[len(vals)-1])
	}
	if r.NumBlocks() < 2 {
		t.Errorf("NumBlocks = %d, want >= 2 with a 128-byte target", r.NumBlocks())
	}
	if r.Version() != Version {
		t.Errorf("Version = %d, want %d", r.Version(), Version)
	}
}

func TestEmptyFileMeta(t *testing.T) {
	path := writeFile(t, nil, Options{}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Count() != 0 || r.First() != "" || r.Max() != "" || r.NumBlocks() != 0 {
		t.Errorf("empty file meta: count=%d first=%q max=%q blocks=%d", r.Count(), r.First(), r.Max(), r.NumBlocks())
	}
	if v, ok := r.Next(); ok {
		t.Errorf("Next on empty file returned %q", v)
	}
}

func TestSections(t *testing.T) {
	sk := bytes.Repeat([]byte{0xAB, 0xCD}, 500)
	rm := []byte("runmeta")
	path := writeFile(t, genVals(50), Options{}, map[string][]byte{
		SectionSketch:  sk,
		SectionRunMeta: rm,
		"USER":         {},
	})
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	tags := r.Sections()
	if len(tags) != 3 {
		t.Fatalf("Sections = %v, want 3 tags", tags)
	}
	got, ok, err := r.Section(SectionSketch)
	if err != nil || !ok || !bytes.Equal(got, sk) {
		t.Errorf("Section(SKCH): ok=%v err=%v len=%d", ok, err, len(got))
	}
	got, ok, err = r.Section(SectionRunMeta)
	if err != nil || !ok || !bytes.Equal(got, rm) {
		t.Errorf("Section(RUNM): ok=%v err=%v %q", ok, err, got)
	}
	got, ok, err = r.Section("USER")
	if err != nil || !ok || len(got) != 0 {
		t.Errorf("Section(USER): ok=%v err=%v len=%d", ok, err, len(got))
	}
	if _, ok, _ := r.Section("NONE"); ok {
		t.Errorf("Section(NONE) unexpectedly present")
	}
	// Values still intact alongside sections.
	if n := len(readAll(t, path)); n != 50 {
		t.Errorf("read %d values, want 50", n)
	}
}

func TestWriterErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.val")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append("b"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append("a"); err == nil {
		t.Errorf("out-of-order Append succeeded")
	}
	if err := w.Append("b"); err == nil {
		t.Errorf("duplicate Append succeeded")
	}
	if err := w.SetSection("TOOLONG", nil); err == nil {
		t.Errorf("5-byte section tag accepted")
	}
	if err := w.SetSection("DUPL", nil); err != nil {
		t.Errorf("SetSection: %v", err)
	}
	if err := w.SetSection("DUPL", nil); err == nil {
		t.Errorf("duplicate section tag accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append("c"); err == nil {
		t.Errorf("Append after Close succeeded")
	}
	if err := w.SetSection("LATE", nil); err == nil {
		t.Errorf("SetSection after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// Corruption must always surface as an error (wrapping ErrCorrupt for
// structural damage), never a panic or a silently wrong value stream.
func TestCorruption(t *testing.T) {
	vals := genVals(200)
	path := writeFile(t, vals, Options{TargetBlockSize: 128}, map[string][]byte{SectionSketch: []byte("sketchy")})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// expectBroken re-reads a mutated copy and requires either an Open
	// error or an iteration error; a full clean read that differs from
	// the original values is the one unacceptable outcome.
	expectBroken := func(t *testing.T, mutated []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.val")
		if err := os.WriteFile(p, mutated, 0o666); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			return // rejected at open: fine
		}
		defer r.Close()
		n := 0
		for {
			v, ok := r.Next()
			if !ok {
				break
			}
			if n >= len(vals) || v != vals[n] {
				t.Fatalf("silently misread: position %d got %q", n, v)
			}
			n++
		}
		if r.Err() == nil && n != len(vals) {
			t.Fatalf("clean EOF after %d of %d values", n, len(vals))
		}
		if r.Err() == nil {
			t.Fatalf("mutation went undetected")
		}
	}

	t.Run("truncatedToHeader", func(t *testing.T) { expectBroken(t, orig[:headerSize]) })
	t.Run("truncatedMidFile", func(t *testing.T) { expectBroken(t, orig[:len(orig)/2]) })
	t.Run("truncatedFooter", func(t *testing.T) { expectBroken(t, orig[:len(orig)-4]) })
	t.Run("badMagic", func(t *testing.T) {
		b := bytes.Clone(orig)
		b[0] = 'X'
		expectBroken(t, b)
	})
	t.Run("futureVersion", func(t *testing.T) {
		b := bytes.Clone(orig)
		b[4] = Version + 1
		expectBroken(t, b)
	})
	t.Run("unknownFlags", func(t *testing.T) {
		b := bytes.Clone(orig)
		b[5] = 0x80
		expectBroken(t, b)
	})
	t.Run("blockBitFlip", func(t *testing.T) {
		b := bytes.Clone(orig)
		b[headerSize+blockHeaderSize+3] ^= 0x40 // inside the first block payload
		expectBroken(t, b)
	})
	t.Run("footerBitFlip", func(t *testing.T) {
		b := bytes.Clone(orig)
		b[len(b)-footerSize+2] ^= 0x01
		expectBroken(t, b)
	})
	t.Run("indexBitFlip", func(t *testing.T) {
		b := bytes.Clone(orig)
		// The index sits just before the footer.
		b[len(b)-footerSize-8] ^= 0x04
		expectBroken(t, b)
	})
	t.Run("zeroed", func(t *testing.T) { expectBroken(t, make([]byte, len(orig))) })
	t.Run("empty", func(t *testing.T) { expectBroken(t, nil) })
	t.Run("sectionBitFlip", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "bad.val")
		b := bytes.Clone(orig)
		i := bytes.Index(b, []byte("sketchy"))
		if i < 0 {
			t.Fatal("section payload not found")
		}
		b[i] ^= 0x20
		if err := os.WriteFile(p, b, 0o666); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			t.Fatalf("Open: %v", err) // directory CRC covers entries, not payloads
		}
		defer r.Close()
		if _, _, err := r.Section(SectionSketch); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Section after payload flip: err=%v, want ErrCorrupt", err)
		}
	})
}

func TestOpenRejectsTextFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "text.val")
	if err := os.WriteFile(p, []byte("alpha\nbeta\ngamma\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open(text file): err=%v, want ErrCorrupt", err)
	}
}

func TestHasMagic(t *testing.T) {
	if HasMagic([]byte("alpha")) || HasMagic(nil) || HasMagic(Magic[:3]) {
		t.Errorf("HasMagic false positives")
	}
	if !HasMagic(Magic[:]) || !HasMagic(append(Magic[:], 'x')) {
		t.Errorf("HasMagic false negatives")
	}
	// The soundness argument for sniffing: a text-format file can never
	// start with the magic's first byte, because the text writer
	// escapes every newline.
	if Magic[0] != '\n' {
		t.Errorf("Magic[0] = %#x, want '\\n' (the byte no text value file can start with)", Magic[0])
	}
}

func TestFrontCodingCompresses(t *testing.T) {
	// 2000 values sharing a 30-byte prefix: the block format must be
	// substantially smaller than the sum of raw value lengths.
	vals := genVals(2000)
	var raw int
	for _, v := range vals {
		raw += len(v) + 1 // text framing: value + newline
	}
	path := writeFile(t, vals, Options{}, nil)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(raw)/2 {
		t.Errorf("block file is %d bytes, want < half of %d raw", fi.Size(), raw)
	}
}

func TestBytesRead(t *testing.T) {
	path := writeFile(t, genVals(500), Options{TargetBlockSize: 256}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	open := r.BytesRead()
	if open <= 0 {
		t.Errorf("BytesRead after open = %d, want > 0 (header/footer/index)", open)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	fi, _ := os.Stat(path)
	if got := r.BytesRead(); got <= open || got > fi.Size() {
		t.Errorf("BytesRead after full scan = %d (open %d, file %d)", got, open, fi.Size())
	}
}

func TestLongValues(t *testing.T) {
	long := strings.Repeat("x", 100_000)
	vals := []string{long + "a", long + "b", long + "c"}
	path := writeFile(t, vals, Options{TargetBlockSize: 64}, nil)
	got := readAll(t, path)
	if len(got) != 3 || got[0] != vals[0] || got[2] != vals[2] {
		t.Fatalf("long-value roundtrip failed: %d values", len(got))
	}
}
