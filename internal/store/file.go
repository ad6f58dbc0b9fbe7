package store

import "spider/internal/valfile"

// This file holds the blessed path-level pass-throughs into the
// valfile seam. They exist so that code which legitimately works on
// bare value files — the valconvert migration tool — still routes
// through the store package: the
// storeseam analyzer forbids direct valfile open/create calls
// everywhere else, which keeps the Dataset abstraction from eroding
// one call site at a time.

// OpenFile opens the value file at path with format auto-detection,
// counting delivered items and bytes into counter (nil disables).
func OpenFile(path string, counter *valfile.ReadCounter) (*valfile.Reader, error) {
	return valfile.Open(path, counter)
}

// CreateFile creates a value file at path in the given encoding.
func CreateFile(path string, format valfile.Format) (*valfile.Writer, error) {
	return valfile.CreateFormat(path, format)
}

// ReadFileValues reads the whole value file at path into memory.
func ReadFileValues(path string) ([]string, error) {
	return valfile.ReadAll(path)
}

// FileSection returns the named embedded section of the value file at
// path; ok is false when the file carries no such section (always the
// case for the text encoding, whose sections live in sidecars).
func FileSection(path, tag string) (data []byte, ok bool, err error) {
	return valfile.ReadSection(path, tag)
}
