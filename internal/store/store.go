// Package store is the dataset storage seam: every sorted-distinct
// value stream the engines read, every staged extraction output, every
// persisted sketch and named section flows through a Dataset. The
// merge engines, the extraction path and the CLIs never open a value
// file directly — fsstore (FS) holds block value files,
// memstore (Mem) holds datasets in memory, and Snapshot is a read-only
// view of one Mem that any number of concurrent readers share without
// a second copy (the indserved precondition).
//
// See README.md in this directory for the interface contract
// (ownership and close rules, section names).
package store

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"spider/internal/valfile"
)

// ErrReadOnly is returned by mutating calls on read-only datasets
// (Snapshot, or any future backend that serves frozen data).
var ErrReadOnly = errors.New("store: dataset is read-only")

// CheckKey rejects a key that is not a plain file name: empty, "." or
// "..", or containing a path separator (so every absolute path). FS refuses such keys,
// so a dataset never reaches outside its directory, and result-set
// loaders apply the same rule to the keys they read from disk.
func CheckKey(key string) error {
	if key == "" || key == "." || key == ".." ||
		strings.ContainsRune(key, '/') || strings.ContainsRune(key, os.PathSeparator) {
		return fmt.Errorf("store: key %q is not a plain file name", key)
	}
	return nil
}

// Cursor streams one key's sorted distinct values in strictly
// increasing order. Next returns ok=false at end of stream or on
// error, distinguished by Err. Close releases underlying resources and
// must be called exactly once by the opener.
//
// Values are immutable strings that a caller may keep past Close. A
// block-format cursor's values are substrings of one string per
// decoded block, so keeping one value keeps its block (at most one
// decoded block) alive; a caller that keeps a few values of a large set
// should strings.Clone them. indserved's staging keeps whole sets, so
// it pins nothing extra.
type Cursor interface {
	Next() (v string, ok bool)
	Err() error
	Close() error
}

// *FileCursor is the file-backed cursor.
var _ Cursor = (*FileCursor)(nil)

// ValueWriter stages one key's sorted distinct value stream plus any
// named sections. Append enforces the strictly-increasing invariant.
// SetSection attaches a named payload (SketchSection, RunMetaSection):
// block files embed it, memory datasets keep it in their section map.
// The staged key becomes readable
// only after Close returns nil; Close must be called exactly once.
type ValueWriter interface {
	Append(v string) error
	SetSection(tag string, data []byte) error
	Len() int
	Close() error
}

// Dataset is one logical collection of sorted-distinct value sets,
// keyed by plain names (file names under fsstore; see CheckKey). All read methods must be safe for concurrent use;
// writes to distinct keys may proceed concurrently, but a key must not
// be read before its writer has been closed.
type Dataset interface {
	// Open returns a cursor over key's values from the smallest. Every
	// delivered item (and, where the backend can account for it, every
	// raw byte) is counted by counter; nil disables counting. It must
	// be safe to open the same key concurrently.
	Open(key string, counter *valfile.ReadCounter) (Cursor, error)

	// Create stages a new value set under key, replacing any existing
	// one when the returned writer is closed.
	Create(key string) (ValueWriter, error)

	// Remove deletes key's values and sections. Removing an absent key
	// is an error.
	Remove(key string) error

	// Section returns the named section attached to key; ok is false
	// when the key exists but carries no such section.
	Section(key, tag string) (data []byte, ok bool, err error)
}
