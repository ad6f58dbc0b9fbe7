package store

import (
	"errors"
	"fmt"

	"spider/internal/blockfile"
	"spider/internal/valfile"
)

// This file is the only door to block files outside the blockfile
// package. FS goes through it, and so does the valconvert migration
// tool, which works on bare file paths: the storeseam analyzer forbids
// blockfile.Open and blockfile.Create everywhere else, which keeps the
// Dataset abstraction from eroding one call site at a time.

// openBlock opens the block file at path. A file without the block
// magic, such as a text export from before block became the only
// encoding, fails with an error that names the file and the tool that
// converts it.
func openBlock(path string) (*blockfile.Reader, error) {
	r, err := blockfile.Open(path)
	if errors.Is(err, blockfile.ErrNoMagic) {
		return nil, fmt.Errorf("store: %s is not a block-format value file; convert it with valconvert -format block: %w", path, blockfile.ErrNoMagic)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return r, nil
}

// OpenFile opens the value file at path, counting delivered items and,
// at Close, the bytes read into counter (nil disables).
func OpenFile(path string, counter *valfile.ReadCounter) (*FileCursor, error) {
	r, err := openBlock(path)
	if err != nil {
		return nil, err
	}
	return &FileCursor{r: r, counter: counter}, nil
}

// CreateFile creates a value file at path, truncating any existing
// file. Append enforces the strictly increasing order, and the file is
// readable only after Close.
func CreateFile(path string) (ValueWriter, error) {
	w, err := blockfile.Create(path, blockfile.Options{})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return w, nil
}

// FileSection returns the named embedded section of the value file at
// path; ok is false when the file carries no such section.
func FileSection(path, tag string) (data []byte, ok bool, err error) {
	r, err := openBlock(path)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	return r.Section(tag)
}

// FileCursor is the file-backed Cursor: a block file's values in order,
// each counted as it is delivered.
type FileCursor struct {
	r       *blockfile.Reader
	counter *valfile.ReadCounter
	closed  bool
}

// Next returns the next value.
func (c *FileCursor) Next() (string, bool) {
	v, ok := c.r.Next()
	if ok {
		c.counter.Add(1)
	}
	return v, ok
}

// Err returns the first error encountered, if any.
func (c *FileCursor) Err() error { return c.r.Err() }

// Sections lists the tags of the file's embedded sections.
func (c *FileCursor) Sections() []string { return c.r.Sections() }

// Section returns the named embedded section; ok is false when the file
// carries no such section. It does not move the cursor.
func (c *FileCursor) Section(tag string) (data []byte, ok bool, err error) {
	return c.r.Section(tag)
}

// Close releases the file, adding the bytes read to the counter once.
func (c *FileCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.counter.AddBytes(c.r.BytesRead())
	}
	return c.r.Close()
}
