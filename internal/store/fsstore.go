package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"

	"spider/internal/sketch"
	"spider/internal/valfile"
)

// FS is the filesystem backend: one dataset per directory of value
// files in the text or block encoding. Every key is a plain file name
// (see CheckKey) joined under the root directory, so a dataset never
// reads or writes outside it.
//
// Reads auto-detect the per-file encoding; Format only selects the
// encoding of newly created keys. On the text encoding, which cannot
// embed sections, SketchSection payloads are persisted as
// "<key>.sketch" sidecar files (the byte-identical sketch encoding)
// and other sections are dropped, matching the historical sidecar
// behaviour.
type FS struct {
	dir    string
	format valfile.Format
}

// NewFS returns a filesystem dataset rooted at dir writing new keys in
// format. The directory is created on the first Create; every call on
// a dataset with an empty dir fails.
func NewFS(dir string, format valfile.Format) *FS {
	return &FS{dir: dir, format: format}
}

// Format returns the encoding used for newly created keys.
func (f *FS) Format() valfile.Format { return f.format }

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
	return OpenFile(path, counter)
}

// Create stages a value file for key in the dataset's encoding,
// creating the root directory when it does not exist yet.
func (f *FS) Create(key string) (ValueWriter, error) {
	path, err := f.path(key)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(f.dir, 0o777); err != nil {
		return nil, err
	}
	w, err := CreateFile(path, f.format)
	if err != nil {
		return nil, err
	}
	return &fsWriter{w: w, path: path}, nil
}

// Remove deletes key's value file and any sketch sidecar.
func (f *FS) Remove(key string) error {
	path, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	// The sidecar exists only on the text path; its absence is normal.
	if err := os.Remove(path + sketch.FileSuffix); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Section returns key's named section, falling back to the sketch
// sidecar for SketchSection on text-encoded files.
func (f *FS) Section(key, tag string) ([]byte, bool, error) {
	path, err := f.path(key)
	if err != nil {
		return nil, false, err
	}
	data, ok, err := FileSection(path, tag)
	if err != nil || ok {
		return data, ok, err
	}
	if tag != valfile.SketchSection {
		return nil, false, nil
	}
	data, err = os.ReadFile(path + sketch.FileSuffix)
	switch {
	case err == nil:
		return data, true, nil
	case os.IsNotExist(err):
		return nil, false, nil
	default:
		return nil, false, err
	}
}

// fsWriter adapts a valfile.Writer to the ValueWriter contract,
// buffering sections the text encoding cannot embed.
type fsWriter struct {
	w       *valfile.Writer
	path    string
	sidecar []byte // SketchSection payload pending as a text sidecar
}

func (w *fsWriter) Append(v string) error { return w.w.Append(v) }

func (w *fsWriter) Len() int { return w.w.Len() }

func (w *fsWriter) SetSection(tag string, data []byte) error {
	if w.w.Format() == valfile.FormatBlock {
		return w.w.SetSection(tag, data)
	}
	// Text files cannot embed sections: the sketch moves to its
	// historical sidecar at Close, anything else is dropped exactly as
	// the text path always dropped it (e.g. run metadata).
	if tag == valfile.SketchSection {
		w.sidecar = append([]byte(nil), data...)
	}
	return nil
}

func (w *fsWriter) Close() error {
	if err := w.w.Close(); err != nil {
		return err
	}
	if w.sidecar == nil {
		return nil
	}
	return os.WriteFile(w.path+sketch.FileSuffix, w.sidecar, fs.FileMode(0o666))
}
