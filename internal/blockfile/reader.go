package blockfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Reader iterates a block-format file in value order. Open validates
// the header, footer, block index and section directory (all
// checksummed); block payloads are validated lazily as they are read.
// Every structural problem surfaces as an error wrapping ErrCorrupt —
// a damaged file must never panic or silently misread.
type Reader struct {
	f    *os.File
	size int64
	path string

	version byte
	index   []indexEntry
	dir     []dirEntry
	count   int64
	max     string

	// Iteration state. A block's payload is read into buf and decoded
	// in runs: each run is one string holding its values back to back,
	// and Next hands out substrings of it.
	curBlock int     // next index entry to load
	buf      []byte  // current block's payload; reused across blocks
	pos      int     // offset of the next undecoded record in buf
	left     int     // records of the current block not yet decoded
	run      string  // decoded values of the current run
	ends     []int32 // ends[i] is the end offset of value i in run; reused
	next     int     // index of the next value to deliver
	runErr   error   // the error at record len(ends), surfaced when Next gets there
	prev     string  // last decoded value (front-coding base)
	havePrev bool    // prev holds a decoded value
	err      error
	done     bool

	bytes  int64
	closed bool
}

// Open opens and validates a block-format file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, path: path}
	if err := r.load(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) load() error {
	fi, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.size = fi.Size()

	// The magic comes first, so that a file in another encoding of any
	// length, the empty file included, fails with ErrNoMagic.
	var hdr [headerSize]byte
	n, err := r.f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return err
	}
	if !HasMagic(hdr[:n]) {
		return fmt.Errorf("%w: %s", ErrNoMagic, r.path)
	}
	if r.size < headerSize+footerSize {
		return corruptf("%s: %d bytes is smaller than header+footer", r.path, r.size)
	}
	r.version = hdr[4]
	if r.version == 0 || r.version > Version {
		return corruptf("%s: unsupported format version %d (reader supports <= %d)", r.path, r.version, Version)
	}
	if hdr[5] != 0 {
		return corruptf("%s: unknown flag bits 0x%02x", r.path, hdr[5])
	}

	var ftr [footerSize]byte
	if _, err := r.f.ReadAt(ftr[:], r.size-footerSize); err != nil {
		return err
	}
	if [4]byte(ftr[48:52]) != TailMagic {
		return corruptf("%s: bad tail magic (truncated file?)", r.path)
	}
	if crcOf(ftr[:44]) != u32(ftr[44:48]) {
		return corruptf("%s: footer checksum mismatch", r.path)
	}
	indexOff, indexLen := u64(ftr[0:8]), u64(ftr[8:16])
	indexCrc := u32(ftr[16:20])
	dirOff := u64(ftr[20:28])
	sectionCount := u32(ftr[28:32])
	dirCrc := u32(ftr[32:36])
	r.count = int64(u64(ftr[36:44]))
	if r.count < 0 {
		return corruptf("%s: value count overflows", r.path)
	}

	body := uint64(r.size - footerSize) // exclusive upper bound for blobs
	if indexLen > body || indexOff < headerSize || indexOff > body-indexLen {
		return corruptf("%s: index [%d,+%d) out of bounds", r.path, indexOff, indexLen)
	}
	idx := make([]byte, indexLen)
	if _, err := r.f.ReadAt(idx, int64(indexOff)); err != nil {
		return err
	}
	r.bytes += int64(headerSize + footerSize + len(idx))
	if crcOf(idx) != indexCrc {
		return corruptf("%s: index checksum mismatch", r.path)
	}
	if err := r.parseIndex(idx, int64(indexOff)); err != nil {
		return err
	}

	if sectionCount > maxSections {
		return corruptf("%s: %d sections exceeds limit %d", r.path, sectionCount, maxSections)
	}
	dirLen := uint64(sectionCount) * dirEntrySize
	if sectionCount > 0 {
		if dirLen > body || dirOff < headerSize || dirOff > body-dirLen {
			return corruptf("%s: section directory [%d,+%d) out of bounds", r.path, dirOff, dirLen)
		}
		blob := make([]byte, dirLen)
		if _, err := r.f.ReadAt(blob, int64(dirOff)); err != nil {
			return err
		}
		r.bytes += int64(len(blob))
		if crcOf(blob) != dirCrc {
			return corruptf("%s: section directory checksum mismatch", r.path)
		}
		for i := uint32(0); i < sectionCount; i++ {
			e := blob[i*dirEntrySize:]
			d := dirEntry{
				tag: string(e[0:4]),
				off: int64(u64(e[4:12])),
				len: int64(u64(e[12:20])),
				crc: u32(e[20:24]),
			}
			if d.off < headerSize || d.len < 0 || uint64(d.len) > body || uint64(d.off) > body-uint64(d.len) {
				return corruptf("%s: section %q [%d,+%d) out of bounds", r.path, d.tag, d.off, d.len)
			}
			r.dir = append(r.dir, d)
		}
	}
	return nil
}

func (r *Reader) parseIndex(idx []byte, indexOff int64) error {
	rd := newUvarintReader(idx)
	nBlocks, ok := rd.next()
	if !ok || nBlocks > uint64(r.size)/blockHeaderSize {
		return corruptf("%s: implausible block count in index", r.path)
	}
	r.index = make([]indexEntry, 0, nBlocks)
	prevOff := int64(headerSize - 1)
	var sum int64
	for i := uint64(0); i < nBlocks; i++ {
		off, ok1 := rd.next()
		cnt, ok2 := rd.next()
		first, ok3 := rd.str()
		if !ok1 || !ok2 || !ok3 {
			return corruptf("%s: truncated index entry %d", r.path, i)
		}
		e := indexEntry{off: int64(off), count: int(cnt), first: first}
		if e.off <= prevOff || uint64(e.off) > uint64(indexOff)-blockHeaderSize {
			return corruptf("%s: index entry %d: block offset %d out of order or out of bounds", r.path, i, e.off)
		}
		if e.count <= 0 {
			return corruptf("%s: index entry %d: non-positive record count", r.path, i)
		}
		if i > 0 && first <= r.index[i-1].first {
			return corruptf("%s: index entry %d: first value %q not increasing", r.path, i, first)
		}
		prevOff = e.off
		sum += int64(e.count)
		r.index = append(r.index, e)
	}
	maxVal, ok := rd.str()
	if !ok {
		return corruptf("%s: index missing max value", r.path)
	}
	if rd.rest() != 0 {
		return corruptf("%s: %d trailing bytes after index", r.path, rd.rest())
	}
	if sum != r.count {
		return corruptf("%s: index counts sum to %d, footer says %d values", r.path, sum, r.count)
	}
	if len(r.index) > 0 && maxVal < r.index[len(r.index)-1].first {
		return corruptf("%s: max value %q below last block's first value", r.path, maxVal)
	}
	r.max = maxVal
	return nil
}

// Next returns the next value in order, or false at the end of the
// file or on error (check Err). The value is a substring of the string
// its run of the block decoded into, so keeping it keeps that run alive
// (at most maxRunBytes plus one value).
func (r *Reader) Next() (string, bool) {
	if r.err != nil || r.done {
		return "", false
	}
	for r.next == len(r.ends) {
		if r.runErr != nil {
			r.fail(r.runErr)
			return "", false
		}
		if r.left == 0 && !r.loadBlock() {
			return "", false
		}
		r.decodeRun()
	}
	start := 0
	if r.next > 0 {
		start = int(r.ends[r.next-1])
	}
	v := r.run[start:r.ends[r.next]]
	r.next++
	return v, true
}

func (r *Reader) loadBlock() bool {
	if r.curBlock >= len(r.index) {
		r.done = true
		return false
	}
	e := r.index[r.curBlock]
	var hdr [blockHeaderSize]byte
	if _, err := r.f.ReadAt(hdr[:], e.off); err != nil {
		r.fail(err)
		return false
	}
	payloadLen := int64(u32(hdr[0:4]))
	wantCrc := u32(hdr[4:8])
	cnt := int64(u32(hdr[8:12]))
	if payloadLen > maxBlockPayload || e.off+blockHeaderSize+payloadLen > r.size-footerSize {
		r.fail(corruptf("%s: block at %d: payload length %d out of bounds", r.path, e.off, payloadLen))
		return false
	}
	if cnt != int64(e.count) {
		r.fail(corruptf("%s: block at %d: header count %d disagrees with index count %d", r.path, e.off, cnt, e.count))
		return false
	}
	r.buf = slices.Grow(r.buf[:0], int(payloadLen))[:payloadLen]
	if _, err := r.f.ReadAt(r.buf, e.off+blockHeaderSize); err != nil {
		r.fail(err)
		return false
	}
	if crcOf(r.buf) != wantCrc {
		r.fail(corruptf("%s: block at %d: payload checksum mismatch", r.path, e.off))
		return false
	}
	r.bytes += int64(blockHeaderSize + payloadLen)
	r.pos = 0
	r.left = e.count
	// Every record takes at least two payload bytes, so the payload,
	// not the header's count, bounds the offsets a block can need.
	r.ends = slices.Grow(r.ends[:0], min(e.count, int(payloadLen)/2+1))
	r.curBlock++
	return true
}

// decodeRun decodes the next records of the current block into one
// string of exact size: a first pass checks each record's framing and
// sums the value lengths, a second fills the string and checks order.
// It stops after maxRunBytes, so a hostile block whose records repeat
// long prefixes cannot force one huge allocation. A record that fails a
// check ends the run; the values before it are delivered first, and
// runErr surfaces when Next reaches it.
func (r *Reader) decodeRun() {
	e := r.index[r.curBlock-1]
	p := r.buf
	r.ends, r.next = r.ends[:0], 0

	// Pass 1: framing, prefix bounds, the first record, trailing bytes.
	pos, total, prevLen := r.pos, 0, len(r.prev)
	var tailErr error
	for r.left > len(r.ends) && (total < maxRunBytes || len(r.ends) == 0) {
		prefix, n1 := binary.Uvarint(p[pos:])
		if n1 <= 0 {
			r.runErr = corruptf("%s: block at %d: bad prefix varint", r.path, e.off)
			break
		}
		pos += n1
		suffixLen, n2 := binary.Uvarint(p[pos:])
		if n2 <= 0 || suffixLen > uint64(len(p)-pos-n2) {
			r.runErr = corruptf("%s: block at %d: bad suffix length", r.path, e.off)
			break
		}
		pos += n2
		suffix := p[pos : pos+int(suffixLen)]
		pos += int(suffixLen)
		if r.left-len(r.ends) == e.count {
			// The first record of every block is self-contained so
			// blocks decode independently of one another.
			if prefix != 0 {
				r.runErr = corruptf("%s: block at %d: first record has prefix %d", r.path, e.off, prefix)
				break
			}
			if string(suffix) != e.first {
				r.runErr = corruptf("%s: block at %d: first record %q disagrees with index %q", r.path, e.off, string(suffix), e.first)
				break
			}
		} else if prefix > uint64(prevLen) {
			r.runErr = corruptf("%s: block at %d: prefix %d exceeds previous value length %d", r.path, e.off, prefix, prevLen)
			break
		}
		prevLen = int(prefix) + len(suffix)
		total += prevLen
		r.ends = append(r.ends, int32(total))
		if r.left == len(r.ends) && pos != len(p) {
			// Reported after the record's order check, as a record
			// that fails both is reported for its order.
			tailErr = corruptf("%s: block at %d: %d trailing payload bytes", r.path, e.off, len(p)-pos)
		}
	}

	// Pass 2: fill the string. Strictly increasing against the last
	// value; the common prefix is equal, so comparing the suffix with
	// the rest of the previous value decides it. A block's first record
	// is compared with the previous block's last value.
	var b strings.Builder
	b.Grow(total)
	pos, start := r.pos, 0
	for i, end := range r.ends {
		prefix, n1 := binary.Uvarint(p[pos:])
		suffixLen, n2 := binary.Uvarint(p[pos+n1:])
		pos += n1 + n2
		suffix := p[pos : pos+int(suffixLen)]
		pos += int(suffixLen)
		if r.havePrev && string(suffix) <= r.prev[prefix:] {
			r.runErr = corruptf("%s: block at %d: value %q not increasing after %q", r.path, e.off, r.prev[:prefix]+string(suffix), r.prev)
			r.ends = r.ends[:i]
			break
		}
		b.WriteString(r.prev[:prefix])
		b.Write(suffix)
		r.prev, r.havePrev = b.String()[start:end], true
		start = int(end)
	}
	if r.runErr == nil && tailErr != nil {
		r.runErr = tailErr
		r.ends = r.ends[:len(r.ends)-1]
	}
	r.pos = pos
	r.left -= len(r.ends)
	r.run = b.String()
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.done = true
}

// Err returns the first error encountered by Next, if any.
func (r *Reader) Err() error { return r.err }

// Section returns the payload of the named section, verifying its
// checksum. ok is false if the file has no such section.
func (r *Reader) Section(tag string) (data []byte, ok bool, err error) {
	for _, d := range r.dir {
		if d.tag != tag {
			continue
		}
		b := make([]byte, d.len)
		if _, err := r.f.ReadAt(b, d.off); err != nil {
			if err == io.EOF && d.len == 0 {
				err = nil
			} else {
				return nil, false, err
			}
		}
		r.bytes += int64(len(b))
		if crcOf(b) != d.crc {
			return nil, false, corruptf("%s: section %q checksum mismatch", r.path, tag)
		}
		return b, true, nil
	}
	return nil, false, nil
}

// Sections lists the section tags present in the file.
func (r *Reader) Sections() []string {
	tags := make([]string, len(r.dir))
	for i, d := range r.dir {
		tags[i] = d.tag
	}
	return tags
}

// Count returns the number of values in the file (from the footer;
// validated against the index at open).
func (r *Reader) Count() int64 { return r.count }

// First returns the smallest value in the file ("" for an empty file).
func (r *Reader) First() string {
	if len(r.index) == 0 {
		return ""
	}
	return r.index[0].first
}

// Max returns the largest value in the file ("" for an empty file).
func (r *Reader) Max() string { return r.max }

// NumBlocks returns the number of value blocks.
func (r *Reader) NumBlocks() int { return len(r.index) }

// Version returns the file's format version.
func (r *Reader) Version() int { return int(r.version) }

// BytesRead returns the bytes read from the file so far, including the
// header, footer, index, directory and any sections or blocks read.
func (r *Reader) BytesRead() int64 { return r.bytes }

// Close releases the file handle.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}

// uvarintReader decodes a sequence of uvarints and length-prefixed
// strings from a byte slice without panicking on truncation. The
// strings are substrings of one copy of the slice, so the index's
// first values and max cost one allocation, not one per block.
type uvarintReader struct {
	b   []byte
	s   string // b, copied once
	pos int
}

func newUvarintReader(b []byte) *uvarintReader { return &uvarintReader{b: b, s: string(b)} }

func (u *uvarintReader) next() (uint64, bool) {
	v, n := binary.Uvarint(u.b[u.pos:])
	if n <= 0 {
		return 0, false
	}
	u.pos += n
	return v, true
}

func (u *uvarintReader) str() (string, bool) {
	n, ok := u.next()
	if !ok || n > uint64(len(u.b)-u.pos) {
		return "", false
	}
	s := u.s[u.pos : u.pos+int(n)]
	u.pos += int(n)
	return s, true
}

func (u *uvarintReader) rest() int { return len(u.b) - u.pos }
