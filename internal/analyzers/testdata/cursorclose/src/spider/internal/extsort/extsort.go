// Package extsort is a fixture stub mirroring spider/internal/extsort:
// a Discard-released Sorter.
package extsort

// Sorter mirrors the in-memory sorter; Discard is its release method.
type Sorter struct{}

func New() *Sorter                   { return &Sorter{} }
func (s *Sorter) Add(v string) error { return nil }
func (s *Sorter) Discard()           {}
