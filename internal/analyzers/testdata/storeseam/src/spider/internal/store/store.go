// Package store is the allowed side of the seam: the storage backends
// and pass-throughs call blockfile directly, with no diagnostics.
package store

import "spider/internal/blockfile"

// OpenFile mirrors the real blessed pass-through.
func OpenFile(path string) (*blockfile.Reader, error) {
	return blockfile.Open(path)
}

// CreateFile mirrors the real blessed pass-through.
func CreateFile(path string) (*blockfile.Writer, error) {
	return blockfile.Create(path, blockfile.Options{})
}
