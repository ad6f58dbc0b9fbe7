package blockfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestDecodeRuns: a block whose values share long prefixes decodes to
// far more than its payload, so the reader decodes it in runs of about
// maxRunBytes. The values and a damaged record's error position stay
// those of the per-record reference.
func TestDecodeRuns(t *testing.T) {
	long := strings.Repeat("x", 2000)
	vals := make([]string, 3000)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s%05d", long, i)
	}
	path := writeFile(t, vals, Options{}, nil)
	if got := readAll(t, path); !slices.Equal(got, vals) {
		t.Fatalf("roundtrip: %d values out, %d in", len(got), len(vals))
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); !ok || len(r.run) > maxRunBytes+len(vals[0]) {
		t.Errorf("first run holds %d bytes, want at most %d", len(r.run), maxRunBytes+len(vals[0]))
	}
	r.Close()

	// Raise the shared-prefix length of record k, well past the first
	// run, above its predecessor's length (both fit a 2-byte varint).
	const k = 900
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := b[headerSize+blockHeaderSize : headerSize+blockHeaderSize+int(u32(b[headerSize:]))]
	pos := 0
	for i := 0; i < k; i++ {
		_, n1 := binary.Uvarint(payload[pos:])
		suffixLen, n2 := binary.Uvarint(payload[pos+n1:])
		pos += n1 + n2 + int(suffixLen)
	}
	binary.PutUvarint(payload[pos:], uint64(len(vals[k-1])+1))
	putU32(b[headerSize+4:], crcOf(payload))
	bad := filepath.Join(t.TempDir(), "bad.val")
	if err := os.WriteFile(bad, b, 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(bad, false)
	if !slices.Equal(got, vals[:k]) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("delivered %d values, err %v; want %d values, then ErrCorrupt", len(got), err, k)
	}
	sameAsReference(t, bad)
}

// TestHugeHeaderCount gives a one-value block a record count of 2³²−1
// in its header, the index and the footer, every checksum valid. The
// count agrees everywhere, so only the payload can refute it: the
// reader must fail where the reference does, once the payload runs
// out, without allocating in proportion to the claimed count.
func TestHugeHeaderCount(t *testing.T) {
	orig, err := os.ReadFile(writeFile(t, []string{"a"}, Options{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1<<32 - 1
	ftr := bytes.Clone(orig[len(orig)-footerSize:])
	indexOff := int(u64(ftr[0:8]))
	idx := []byte{1, headerSize, 1, 1, 'a', 1, 'a'} // blocks, off, count, first, max
	if !bytes.Equal(orig[indexOff:len(orig)-footerSize], idx) {
		t.Fatalf("unexpected index % x", orig[indexOff:len(orig)-footerSize])
	}
	idx = binary.AppendUvarint([]byte{1, headerSize}, huge)
	idx = append(idx, 1, 'a', 1, 'a')
	putU64(ftr[8:16], uint64(len(idx)))
	putU32(ftr[16:20], crcOf(idx))
	putU64(ftr[36:44], huge)
	putU32(ftr[44:48], crcOf(ftr[:44]))
	b := append(bytes.Clone(orig[:indexOff]), idx...)
	b = append(b, ftr...)
	putU32(b[headerSize+8:headerSize+12], huge)
	p := filepath.Join(t.TempDir(), "huge.val")
	if err := os.WriteFile(p, b, 0o666); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := decodeAll(p, false)
	runtime.ReadMemStats(&after)
	if !slices.Equal(got, []string{"a"}) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad prefix varint") {
		t.Errorf("delivered %q, err %v; want [a], then ErrCorrupt with bad prefix varint", got, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("decoding allocated %d bytes, want at most 1 MiB", n)
	}
	sameAsReference(t, p)
}

// TestScanAllocsPerBlock pins the reader's allocation shape: a full
// scan, Open included, allocates one decoded string per block, never
// one per value.
func TestScanAllocsPerBlock(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		path := writeFile(t, genVals(n), Options{}, nil)
		blocks := 0
		allocs := testing.AllocsPerRun(5, func() {
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := 0
			for _, ok := r.Next(); ok; _, ok = r.Next() {
				got++
			}
			if err := r.Err(); err != nil || got != n {
				t.Fatalf("read %d of %d values: %v", got, n, err)
			}
			blocks = r.NumBlocks()
		})
		if limit := float64(allocsPerBlock*blocks + 32); allocs > limit {
			t.Errorf("%d values in %d blocks: %.0f allocations per scan, want at most %.0f", n, blocks, allocs, limit)
		}
	}
}

// TestDecodeErrorPosition damages block payloads behind valid checksums,
// so the decoder's own checks must catch each defect. The values before
// the bad record are delivered, then Err reports it, exactly as the
// per-record reference decoder does.
func TestDecodeErrorPosition(t *testing.T) {
	// Two blocks of three values: "a" "b" "cc" | "d" "e" "f". No two
	// values share a prefix, so each record is 00 len bytes.
	vals := []string{"a", "b", "cc", "d", "e", "f"}
	path := writeFile(t, vals, Options{TargetBlockSize: 10}, nil)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	block0 := headerSize + blockHeaderSize
	if want := []byte{0, 1, 'a', 0, 1, 'b', 0, 2, 'c', 'c'}; !bytes.Equal(orig[block0:block0+len(want)], want) {
		t.Fatalf("unexpected first block payload % x", orig[block0:block0+len(want)])
	}
	block1 := block0 + 10 + blockHeaderSize
	for _, tc := range []struct {
		name    string
		edits   map[int]byte // payload offset → new byte
		want    []string
		message string
	}{
		{"order", map[int]byte{block0 + 5: 'a'}, vals[:1], `value "a" not increasing after "a"`},
		{"prefix", map[int]byte{block0 + 6: 2}, vals[:2], "prefix 2 exceeds previous value length 1"},
		{"firstPrefix", map[int]byte{block0: 1}, nil, "first record has prefix 1"},
		{"firstValue", map[int]byte{block0 + 2: 'A'}, nil, `first record "A" disagrees with index "a"`},
		{"suffixOverrun", map[int]byte{block0 + 7: 3}, vals[:2], "bad suffix length"},
		{"trailing", map[int]byte{block0 + 7: 1}, vals[:2], "1 trailing payload bytes"},
		{"orderBeforeTrailing", map[int]byte{block0 + 7: 1, block0 + 8: 'a'}, vals[:2], `value "a" not increasing after "b"`},
		{"crossBlock", map[int]byte{block0 + 8: 'e'}, []string{"a", "b", "ec"}, `value "d" not increasing after "ec"`},
		{"laterBlock", map[int]byte{block1 + 5: 'd'}, vals[:4], `value "d" not increasing after "d"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bytes.Clone(orig)
			for at, v := range tc.edits {
				b[at] = v
			}
			for _, off := range []int{block0, block1} {
				hdr := b[off-blockHeaderSize : off]
				putU32(hdr[4:8], crcOf(b[off:off+int(u32(hdr[0:4]))]))
			}
			p := filepath.Join(t.TempDir(), "bad.val")
			if err := os.WriteFile(p, b, 0o666); err != nil {
				t.Fatal(err)
			}
			got, err := decodeAll(p, false)
			if !slices.Equal(got, tc.want) {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.message) {
				t.Errorf("err = %v, want ErrCorrupt with %q", err, tc.message)
			}
			sameAsReference(t, p)
		})
	}
}
