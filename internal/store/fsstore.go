package store

import (
	"errors"
	"os"
	"path/filepath"

	"spider/internal/valfile"
)

// FS is the filesystem backend: one dataset per directory of block
// value files (internal/blockfile), each embedding its sections. Every
// key is a plain file name (see CheckKey) joined under the root
// directory, so a dataset never reads or writes outside it.
type FS struct {
	dir string
}

// NewFS returns a filesystem dataset rooted at dir. The directory is
// created on the first Create; every call on a dataset with an empty
// dir fails.
//
// The format argument is deprecated: unread; perfbench/ still sets it.
func NewFS(dir string, format ...valfile.Format) *FS {
	return &FS{dir: dir}
}

// path resolves key to its file under the root.
func (f *FS) path(key string) (string, error) {
	if f.dir == "" {
		return "", errors.New("store: filesystem dataset has no root directory")
	}
	if err := CheckKey(key); err != nil {
		return "", err
	}
	return filepath.Join(f.dir, key), nil
}

// Open returns a cursor over key's value file.
func (f *FS) Open(key string, counter *valfile.ReadCounter) (Cursor, error) {
	path, err := f.path(key)
	if err != nil {
		return nil, err
	}
	c, err := OpenFile(path, counter)
	if err != nil {
		return nil, err // not a typed nil inside the Cursor
	}
	return c, nil
}

// Create stages a value file for key, creating the root directory when
// it does not exist yet.
func (f *FS) Create(key string) (ValueWriter, error) {
	path, err := f.path(key)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(f.dir, 0o777); err != nil {
		return nil, err
	}
	return CreateFile(path)
}

// Remove deletes key's value file.
func (f *FS) Remove(key string) error {
	path, err := f.path(key)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

// Section returns key's named embedded section.
func (f *FS) Section(key, tag string) ([]byte, bool, error) {
	path, err := f.path(key)
	if err != nil {
		return nil, false, err
	}
	return FileSection(path, tag)
}
