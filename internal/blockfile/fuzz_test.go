package blockfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzBlockFile drives the format three ways from one input:
//
//  1. roundtrip — values derived from the input must re-read exactly;
//  2. mutation — a bit flip in the encoded file must produce an error
//     or a byte-identical prefix of the original values, never a
//     silently different stream;
//  3. hostile decode — the raw input itself opened as a block file
//     must never panic, and anything it does return must be strictly
//     increasing;
//  4. resealed mutation — the flip lands in a block payload, the block
//     index or the section directory, and the checksum covering it is
//     then recomputed (with the footer's own), so the decoder's and
//     Open's own checks, not the CRC, must catch it.
//
// On every damaged input (2–4) Reader must also agree with refDecoder,
// the per-record decoder it replaced: the same values delivered, and an
// error, with the same message, exactly where the reference errs.
//
// Together these are the invariants the rest of the pipeline assumes:
// what the writer stores is what readers see, and damage is loud.
func FuzzBlockFile(f *testing.F) {
	f.Add([]byte("alpha\x00beta\x00gamma"), uint16(64), uint32(20), byte(0x01))
	f.Add([]byte{}, uint16(0), uint32(0), byte(0xFF))
	f.Add([]byte("\nSPB garbage that starts with the magic"), uint16(1), uint32(5), byte(0x80))
	f.Add(bytes.Repeat([]byte{0xAA}, 300), uint16(8), uint32(100), byte(0x40))

	f.Fuzz(func(t *testing.T, data []byte, target uint16, mutPos uint32, mutXor byte) {
		dir := t.TempDir()

		// (1) Roundtrip: derive sorted distinct values from the input.
		vals := deriveValues(data)
		path := filepath.Join(dir, "rt.val")
		w, err := Create(path, Options{TargetBlockSize: int(target%512) + 1})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for _, v := range vals {
			if err := w.Append(v); err != nil {
				t.Fatalf("Append(%q): %v", v, err)
			}
		}
		if len(data) > 0 {
			if err := w.SetSection("FUZZ", data); err != nil {
				t.Fatalf("SetSection: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, rerr := scan(path)
		if rerr != nil {
			t.Fatalf("re-read of just-written file: %v", rerr)
		}
		if len(got) != len(vals) {
			t.Fatalf("roundtrip: %d values out, %d in", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("roundtrip: value %d = %q, want %q", i, got[i], vals[i])
			}
		}

		// (2) Mutation: flip one byte, demand loud failure or an exact
		// prefix (a flip inside an unread region, e.g. the section
		// payload, legitimately goes unnoticed by a value scan).
		enc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > 0 && mutXor != 0 {
			mut := bytes.Clone(enc)
			mut[int(mutPos)%len(mut)] ^= mutXor
			mpath := filepath.Join(dir, "mut.val")
			if err := os.WriteFile(mpath, mut, 0o666); err != nil {
				t.Fatal(err)
			}
			mgot, _ := scan(mpath) // error is acceptable; misreading is not
			if len(mgot) > len(vals) {
				t.Fatalf("mutated file yielded %d values, original had %d", len(mgot), len(vals))
			}
			for i := range mgot {
				if mgot[i] != vals[i] {
					t.Fatalf("mutated file silently misread value %d: %q != %q", i, mgot[i], vals[i])
				}
			}
			sameAsReference(t, mpath)

			// (4) Resealed mutation: the same flip, with the CRC
			// covering it recomputed.
			checkResealed(t, path, enc, int(mutPos)%len(enc), mutXor)
		}

		// (3) Hostile decode: the raw input as a file.
		hpath := filepath.Join(dir, "hostile.val")
		if err := os.WriteFile(hpath, data, 0o666); err != nil {
			t.Fatal(err)
		}
		hvals, _ := scan(hpath)
		for i := 1; i < len(hvals); i++ {
			if hvals[i] <= hvals[i-1] {
				t.Fatalf("hostile input decoded to non-increasing values %q, %q", hvals[i-1], hvals[i])
			}
		}
		sameAsReference(t, hpath)
	})
}

// checkResealed writes enc with enc[at] ^= xor resealed (see
// resealedFlip) next to path and requires what any damaged input must
// give: strictly increasing values and the reference decoder's values
// and error, never a panic.
func checkResealed(t *testing.T, path string, enc []byte, at int, xor byte) {
	t.Helper()
	rmut, ok := resealedFlip(t, path, enc, at, xor)
	if !ok {
		return
	}
	rpath := filepath.Join(filepath.Dir(path), "reseal.val")
	if err := os.WriteFile(rpath, rmut, 0o666); err != nil {
		t.Fatal(err)
	}
	rgot, _ := scan(rpath)
	for i := 1; i < len(rgot); i++ {
		if rgot[i] <= rgot[i-1] {
			t.Fatalf("resealed file decoded to non-increasing values %q, %q", rgot[i-1], rgot[i])
		}
	}
	sameAsReference(t, rpath)
}

// TestResealedIndexAndDirectory flips every byte of a multi-block
// file's block index and section directory, resealed, so each of
// Open's index and directory checks meets damage its checksum cannot
// catch.
func TestResealedIndexAndDirectory(t *testing.T) {
	path := writeFile(t, genVals(40), Options{TargetBlockSize: 128},
		map[string][]byte{SectionSketch: []byte("sketchy"), SectionRunMeta: []byte("meta")})
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ftr := enc[len(enc)-footerSize:]
	dirOff, indexEnd := int(u64(ftr[20:28])), int(u64(ftr[0:8])+u64(ftr[8:16]))
	for at := dirOff; at < indexEnd; at++ {
		for _, xor := range []byte{0x01, 0x80, 0xFF} {
			checkResealed(t, path, enc, at, xor)
		}
	}
}

// resealedFlip returns enc with enc[at] ^= xor and the checksum that
// covers at recomputed: a block's, or the footer's checksum of the block
// index or of the section directory, followed by the footer's own. ok
// is false when at is outside all of them.
func resealedFlip(t *testing.T, path string, enc []byte, at int, xor byte) ([]byte, bool) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open of just-written file: %v", err)
	}
	defer r.Close()
	mut := bytes.Clone(enc)
	mut[at] ^= xor
	for _, e := range r.index {
		hdr := enc[e.off : e.off+blockHeaderSize]
		lo, hi := int(e.off)+blockHeaderSize, int(e.off)+blockHeaderSize+int(u32(hdr[0:4]))
		if at >= lo && at < hi {
			putU32(mut[e.off+4:e.off+8], crcOf(mut[lo:hi]))
			return mut, true
		}
	}
	// The regions come from the intact footer: at may lie in the footer.
	orig, ftr := enc[len(enc)-footerSize:], mut[len(mut)-footerSize:]
	indexOff, indexEnd := int(u64(orig[0:8])), int(u64(orig[0:8])+u64(orig[8:16]))
	dirOff, dirEnd := int(u64(orig[20:28])), int(u64(orig[20:28]))+int(u32(orig[28:32]))*dirEntrySize
	switch {
	case at >= indexOff && at < indexEnd:
		putU32(ftr[16:20], crcOf(mut[indexOff:indexEnd]))
	case at >= dirOff && at < dirEnd:
		putU32(ftr[32:36], crcOf(mut[dirOff:dirEnd]))
	default:
		return nil, false
	}
	putU32(ftr[44:48], crcOf(ftr[:44]))
	return mut, true
}

// sameAsReference requires Reader and refDecoder to deliver the same
// values from path and to stop with the same error (or none).
func sameAsReference(t *testing.T, path string) {
	t.Helper()
	got, gerr := decodeAll(path, false)
	want, werr := decodeAll(path, true)
	if len(got) != len(want) {
		t.Fatalf("Reader delivered %d values (err %v), reference %d (err %v)", len(got), gerr, len(want), werr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: Reader %q, reference %q", i, got[i], want[i])
		}
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("after %d values: Reader err %v, reference err %v", len(got), gerr, werr)
	}
}

// decodeAll opens path and reads every value with Reader.Next, or with
// refDecoder over the same open file when ref is set.
func decodeAll(path string, ref bool) ([]string, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	next, errOf := r.Next, r.Err
	if ref {
		d := &refDecoder{r: r}
		next, errOf = d.next, func() error { return d.err }
	}
	var out []string
	for {
		v, ok := next()
		if !ok {
			return out, errOf()
		}
		out = append(out, v)
	}
}

// refDecoder is the per-record decoder Reader used before it decoded a
// block at a time: a new payload buffer per block, one string per
// value, and every check made as its record is decoded. It reads
// through an open Reader's file and index, so only block decoding
// differs between the two. One fix is carried over: the suffix bound
// counts the length varint's own bytes, where the old decoder sliced
// past the payload on a block whose checksum matched.
type refDecoder struct {
	r         *Reader
	curBlock  int
	payload   []byte
	pos       int
	remaining int
	prev      string
	havePrev  bool
	err       error
	done      bool
}

func (d *refDecoder) next() (string, bool) {
	if d.err != nil || d.done {
		return "", false
	}
	if d.remaining == 0 && !d.loadBlock() {
		return "", false
	}
	return d.decodeRecord()
}

func (d *refDecoder) loadBlock() bool {
	r := d.r
	if d.curBlock >= len(r.index) {
		d.done = true
		return false
	}
	e := r.index[d.curBlock]
	var hdr [blockHeaderSize]byte
	if _, err := r.f.ReadAt(hdr[:], e.off); err != nil {
		d.fail(err)
		return false
	}
	payloadLen := int64(u32(hdr[0:4]))
	wantCrc := u32(hdr[4:8])
	cnt := int64(u32(hdr[8:12]))
	if payloadLen > maxBlockPayload || e.off+blockHeaderSize+payloadLen > r.size-footerSize {
		d.fail(corruptf("%s: block at %d: payload length %d out of bounds", r.path, e.off, payloadLen))
		return false
	}
	if cnt != int64(e.count) {
		d.fail(corruptf("%s: block at %d: header count %d disagrees with index count %d", r.path, e.off, cnt, e.count))
		return false
	}
	payload := make([]byte, payloadLen)
	if _, err := r.f.ReadAt(payload, e.off+blockHeaderSize); err != nil {
		d.fail(err)
		return false
	}
	if crcOf(payload) != wantCrc {
		d.fail(corruptf("%s: block at %d: payload checksum mismatch", r.path, e.off))
		return false
	}
	d.payload = payload
	d.pos = 0
	d.remaining = e.count
	d.curBlock++
	return true
}

func (d *refDecoder) decodeRecord() (string, bool) {
	r := d.r
	e := r.index[d.curBlock-1]
	firstOfBlock := d.remaining == e.count
	prefix, n1 := binary.Uvarint(d.payload[d.pos:])
	if n1 <= 0 {
		d.fail(corruptf("%s: block at %d: bad prefix varint", r.path, e.off))
		return "", false
	}
	d.pos += n1
	suffixLen, n2 := binary.Uvarint(d.payload[d.pos:])
	if n2 <= 0 || suffixLen > uint64(len(d.payload)-d.pos-n2) {
		d.fail(corruptf("%s: block at %d: bad suffix length", r.path, e.off))
		return "", false
	}
	d.pos += n2
	suffix := d.payload[d.pos : d.pos+int(suffixLen)]
	d.pos += int(suffixLen)

	var v string
	if firstOfBlock {
		if prefix != 0 {
			d.fail(corruptf("%s: block at %d: first record has prefix %d", r.path, e.off, prefix))
			return "", false
		}
		v = string(suffix)
		if v != e.first {
			d.fail(corruptf("%s: block at %d: first record %q disagrees with index %q", r.path, e.off, v, e.first))
			return "", false
		}
	} else {
		if !d.havePrev || prefix > uint64(len(d.prev)) {
			d.fail(corruptf("%s: block at %d: prefix %d exceeds previous value length %d", r.path, e.off, prefix, len(d.prev)))
			return "", false
		}
		v = d.prev[:prefix] + string(suffix)
	}
	if d.havePrev && v <= d.prev {
		d.fail(corruptf("%s: block at %d: value %q not increasing after %q", r.path, e.off, v, d.prev))
		return "", false
	}
	d.remaining--
	if d.remaining == 0 && d.pos != len(d.payload) {
		d.fail(corruptf("%s: block at %d: %d trailing payload bytes", r.path, e.off, len(d.payload)-d.pos))
		return "", false
	}
	d.prev = v
	d.havePrev = true
	return v, true
}

func (d *refDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.done = true
}

// deriveValues turns fuzz bytes into a sorted, distinct value list
// (NUL-separated chunks, so the fuzzer controls lengths and content).
func deriveValues(data []byte) []string {
	parts := bytes.Split(data, []byte{0})
	seen := make(map[string]bool, len(parts))
	var vals []string
	for _, p := range parts {
		s := string(p)
		if !seen[s] {
			seen[s] = true
			vals = append(vals, s)
		}
	}
	sort.Strings(vals)
	return vals
}

// scan opens path as a block file and reads every value, exercising
// sections and metadata accessors along the way.
func scan(path string) ([]string, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for _, tag := range r.Sections() {
		if _, _, err := r.Section(tag); err != nil {
			return nil, err
		}
	}
	_ = r.Count()
	_ = r.First()
	_ = r.Max()
	var out []string
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := r.Err(); err != nil {
		return out, err
	}
	return out, nil
}
