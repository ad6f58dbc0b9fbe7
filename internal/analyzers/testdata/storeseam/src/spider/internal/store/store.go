// Package store is the allowed side of the seam: the storage backends
// and pass-throughs call valfile directly, with no diagnostics.
package store

import "spider/internal/valfile"

// OpenFile mirrors the real blessed pass-through.
func OpenFile(path string, counter *valfile.ReadCounter) (*valfile.Reader, error) {
	return valfile.Open(path, counter)
}

// CreateFile mirrors the real blessed pass-through.
func CreateFile(path string, format valfile.Format) (*valfile.Writer, error) {
	return valfile.CreateFormat(path, format)
}

// readEverything exercises the remaining gated entry points from
// inside the seam, where they are all legitimate.
func readEverything(path string) error {
	if _, err := valfile.Create(path); err != nil {
		return err
	}
	if _, err := valfile.WriteAll(path, nil); err != nil {
		return err
	}
	if _, err := valfile.WriteAllFormat(path, nil, 0); err != nil {
		return err
	}
	if _, err := valfile.ReadAll(path); err != nil {
		return err
	}
	_, _, err := valfile.ReadSection(path, "SKCH")
	return err
}
