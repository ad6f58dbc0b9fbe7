// Package valfile implements the sorted value files both database-external
// algorithms traverse (Sec 3 of the paper: "All value sets are extracted
// from the database and stored in sorted files"). A value file holds one
// attribute's sorted set of distinct canonical values in one of two
// encodings behind a single Reader/Writer API:
//
//   - FormatText (the seed format): one value per record, newline framed
//     with backslash escaping so arbitrary strings round-trip.
//   - FormatBlock (internal/blockfile): front-coded checksummed blocks
//     with a block index and embedded sections (sketch, run metadata).
//
// Readers auto-detect the encoding from the file's first bytes — the
// block magic starts with '\n', a byte no non-empty text file can start
// with — so every consumer works on either format unchanged.
//
// Readers count every item delivered; the counters regenerate the paper's
// Figure 5 (number of items read, brute force vs single pass) and, since
// the block format landed, also tally raw bytes read so the formats'
// I/O can be compared directly.
package valfile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"spider/internal/blockfile"
)

// escape makes a value newline-safe: backslash and newline are escaped.
func escape(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescape reverses escape. It fails on dangling or unknown escapes so
// corrupted files are detected rather than silently misread.
func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("valfile: dangling escape")
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("valfile: unknown escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

// Writer streams values into a value file in the format chosen at
// creation. Values must be appended in strictly increasing order; Writer
// enforces the sorted-distinct invariant that every consumer relies on.
type Writer struct {
	// Text backend.
	f  *os.File
	bw *bufio.Writer
	// Block backend (nil for text files).
	blk *blockfile.Writer

	n     int
	last  string
	first bool
	path  string
}

// Create opens path for writing in the legacy text format, truncating
// any existing file. Equivalent to CreateFormat(path, FormatText).
func Create(path string) (*Writer, error) {
	return CreateFormat(path, FormatText)
}

// CreateFormat opens path for writing in the given format, truncating
// any existing file.
func CreateFormat(path string, format Format) (*Writer, error) {
	switch format {
	case FormatBlock:
		blk, err := blockfile.Create(path, blockfile.Options{})
		if err != nil {
			return nil, fmt.Errorf("valfile: %w", err)
		}
		return &Writer{blk: blk, first: true, path: path}, nil
	case FormatText:
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("valfile: %w", err)
		}
		return &Writer{f: f, bw: bufio.NewWriterSize(f, 64<<10), first: true, path: path}, nil
	default:
		return nil, fmt.Errorf("valfile: unknown format %d", format)
	}
}

// Format returns the encoding this writer produces.
func (w *Writer) Format() Format {
	if w.blk != nil {
		return FormatBlock
	}
	return FormatText
}

// Append writes one value. It fails if v is not strictly greater than the
// previously appended value.
func (w *Writer) Append(v string) error {
	if !w.first && v <= w.last {
		return fmt.Errorf("valfile: %s: append %q after %q violates sorted-distinct invariant", w.path, v, w.last)
	}
	w.first = false
	w.last = v
	w.n++
	if w.blk != nil {
		return w.blk.Append(v)
	}
	if _, err := w.bw.WriteString(escape(v)); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

// SetSection attaches a named section (see the blockfile tags) to be
// embedded when the file is closed. Only the block format carries
// sections; setting one on a text writer is an error, so callers must
// branch on Format() — typically falling back to a sidecar file.
func (w *Writer) SetSection(tag string, data []byte) error {
	if w.blk == nil {
		return fmt.Errorf("valfile: %s: sections require the block format", w.path)
	}
	return w.blk.SetSection(tag, data)
}

// Len returns the number of values appended so far.
func (w *Writer) Len() int { return w.n }

// Close flushes and closes the file. For block files this writes the
// index, sections and footer — an unclosed block file is unreadable.
func (w *Writer) Close() error {
	if w.blk != nil {
		return w.blk.Close()
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReadCounter tallies items and bytes read across any number of readers.
// The item count is the measurement instrument for Figure 5; the byte
// count compares the formats' I/O for the same delivered items. Safe for
// concurrent use.
type ReadCounter struct {
	n atomic.Int64
	b atomic.Int64
}

// Add records n items read.
func (c *ReadCounter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Total returns the number of items read so far.
func (c *ReadCounter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// AddBytes records n raw bytes read from disk.
func (c *ReadCounter) AddBytes(n int64) {
	if c != nil {
		c.b.Add(n)
	}
}

// TotalBytes returns the raw bytes read so far. Readers flush their
// byte tally on Close, so the total is complete once readers are closed.
func (c *ReadCounter) TotalBytes() int64 {
	if c == nil {
		return 0
	}
	return c.b.Load()
}

// Reset zeroes the counter.
func (c *ReadCounter) Reset() {
	if c != nil {
		c.n.Store(0)
		c.b.Store(0)
	}
}

// countingReader counts raw bytes pulled from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Reader iterates a value file's values in order, whichever format the
// file is in. Each successful Next increments both the per-reader count
// and the shared ReadCounter (if any); Close flushes the reader's byte
// tally into the counter. The zero Reader is not usable; use Open.
type Reader struct {
	// Text backend.
	f  *os.File
	sc *bufio.Scanner
	cr *countingReader
	// Block backend (nil for text files).
	blk *blockfile.Reader

	counter *ReadCounter
	read    int64
	err     error
	done    bool
	path    string
	flushed bool
}

// Open opens a value file for reading. counter may be nil. The format
// is sniffed from the first bytes of the file.
func Open(path string, counter *ReadCounter) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("valfile: %w", err)
	}
	var magic [4]byte
	n, err := f.ReadAt(magic[:], 0)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("valfile: %s: %w", path, err)
	}
	if blockfile.HasMagic(magic[:n]) {
		f.Close()
		blk, err := blockfile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("valfile: %w", err)
		}
		return &Reader{blk: blk, counter: counter, path: path}, nil
	}
	r := &Reader{f: f, counter: counter, path: path}
	r.cr = &countingReader{r: f}
	sc := bufio.NewScanner(r.cr)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	r.sc = sc
	return r, nil
}

// Format returns the encoding of the open file.
func (r *Reader) Format() Format {
	if r.blk != nil {
		return FormatBlock
	}
	return FormatText
}

// Next returns the next value. ok is false at end of file or on error;
// check Err after the iteration ends.
func (r *Reader) Next() (v string, ok bool) {
	if r.done || r.err != nil {
		return "", false
	}
	if r.blk != nil {
		v, ok = r.blk.Next()
		if !ok {
			r.done = true
			r.err = r.blk.Err()
			return "", false
		}
	} else {
		if !r.sc.Scan() {
			r.done = true
			r.err = r.sc.Err()
			return "", false
		}
		var err error
		if v, err = unescape(r.sc.Text()); err != nil {
			r.err = fmt.Errorf("%s: %w", r.path, err)
			r.done = true
			return "", false
		}
	}
	r.read++
	r.counter.Add(1)
	return v, true
}

// Read returns the number of items this reader has delivered.
func (r *Reader) Read() int64 { return r.read }

// BytesRead returns the raw bytes this reader has pulled from disk:
// block headers/index/payloads for block files; scanned bytes for text
// files.
func (r *Reader) BytesRead() int64 {
	if r.blk != nil {
		return r.blk.BytesRead()
	}
	return r.cr.n
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Close releases the underlying file, flushing this reader's byte tally
// into the shared counter (once).
func (r *Reader) Close() error {
	if !r.flushed {
		r.flushed = true
		r.counter.AddBytes(r.BytesRead())
	}
	if r.blk != nil {
		return r.blk.Close()
	}
	return r.f.Close()
}

// WriteAll creates a text-format value file at path from an already
// sorted, distinct slice. It is a convenience for tests and small
// exports; format-aware callers use WriteAllFormat.
func WriteAll(path string, sorted []string) (int, error) {
	return WriteAllFormat(path, sorted, FormatText)
}

// WriteAllFormat creates a value file at path in the given format from
// an already sorted, distinct slice.
func WriteAllFormat(path string, sorted []string, format Format) (int, error) {
	w, err := CreateFormat(path, format)
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

// ReadAll reads every value from the file at path; for tests.
func ReadAll(path string) ([]string, error) {
	r, err := Open(path, nil)
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
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

var _ io.Closer = (*Reader)(nil)
