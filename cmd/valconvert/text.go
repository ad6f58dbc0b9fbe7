package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// The text encoding holds one value per line. A backslash is written
// as `\\` and a newline as `\n`, so every string round-trips and no
// file starts with a raw newline unless its first value is empty.

// escape makes a value newline-safe.
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
// a corrupted file is detected rather than silently misread.
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
			return "", fmt.Errorf("dangling escape")
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

// textReader is a store.Cursor over a text value file.
type textReader struct {
	f    *os.File
	sc   *bufio.Scanner
	path string
	err  error
}

func openText(path string) (*textReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return &textReader{f: f, sc: sc, path: path}, nil
}

func (r *textReader) Next() (string, bool) {
	if r.err != nil || !r.sc.Scan() {
		return "", false
	}
	v, err := unescape(r.sc.Text())
	if err != nil {
		r.err = fmt.Errorf("%s: %w", r.path, err)
		return "", false
	}
	return v, true
}

func (r *textReader) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.sc.Err()
}

func (r *textReader) Close() error { return r.f.Close() }

// textWriter is a store.ValueWriter that writes a text value file. It
// carries no sections.
type textWriter struct {
	f    *os.File
	bw   *bufio.Writer
	n    int
	path string
}

func createText(path string) (*textWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &textWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), path: path}, nil
}

func (w *textWriter) Append(v string) error {
	w.n++
	if _, err := w.bw.WriteString(escape(v)); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

func (w *textWriter) SetSection(tag string, data []byte) error {
	return fmt.Errorf("%s: text files carry no %s section", w.path, tag)
}

func (w *textWriter) Len() int { return w.n }

func (w *textWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
