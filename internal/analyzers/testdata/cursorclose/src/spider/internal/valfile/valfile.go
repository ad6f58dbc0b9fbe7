// Package valfile is a fixture stub mirroring spider/internal/valfile:
// the read counter the store stub's signatures name.
package valfile

// ReadCounter mirrors the shared read counter.
type ReadCounter struct{ n int64 }

func (c *ReadCounter) Add(n int64) { c.n += n }
func (c *ReadCounter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.n
}
