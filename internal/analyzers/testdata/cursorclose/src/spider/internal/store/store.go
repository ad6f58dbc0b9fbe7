// Package store is a fixture stub mirroring spider/internal/store:
// just enough of the Dataset seam for cursorclose to recognize its
// closeable cursors.
package store

import "spider/internal/valfile"

// Cursor mirrors the dataset cursor contract.
type Cursor interface {
	Next() (string, bool)
	Err() error
	Close() error
}

// ValueWriter mirrors the staged-writer contract.
type ValueWriter interface {
	Append(v string) error
	Close() error
}

// Dataset mirrors the backend-neutral dataset.
type Dataset interface {
	Open(key string, counter *valfile.ReadCounter) (Cursor, error)
	Create(key string) (ValueWriter, error)
}

// Mem mirrors the in-memory backend.
type Mem struct{}

func NewMem() *Mem { return &Mem{} }

func (m *Mem) Open(key string, counter *valfile.ReadCounter) (Cursor, error) {
	return nil, nil
}

func (m *Mem) Create(key string) (ValueWriter, error) { return nil, nil }

// FileCursor mirrors the file-backed cursor.
type FileCursor struct{}

func (c *FileCursor) Next() (string, bool) { return "", false }
func (c *FileCursor) Err() error           { return nil }
func (c *FileCursor) Close() error         { return nil }

// OpenFile mirrors the blessed pass-through.
func OpenFile(path string, counter *valfile.ReadCounter) (*FileCursor, error) {
	return &FileCursor{}, nil
}
