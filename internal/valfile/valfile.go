// Package valfile holds the vocabulary shared by every reader of the
// sorted value files both database-external algorithms traverse (Sec 3
// of the paper: "All value sets are extracted from the database and
// stored in sorted files"): the ReadCounter that regenerates the
// paper's Figure 5 (number of items read) and tallies raw bytes, the
// tags of the sections a value set carries, and their RunMeta payload.
//
// The files themselves are block files (internal/blockfile), opened
// and created only through internal/store. The text encoding the seed
// wrote is an import/export format of cmd/valconvert.
package valfile

import (
	"sync/atomic"

	"spider/internal/blockfile"
)

// Format names the encoding of value files.
//
// Deprecated: unread; perfbench/ still sets it. Block is the only
// encoding.
type Format int

// FormatBlock is the block encoding.
//
// Deprecated: unread; perfbench/ still sets it.
const FormatBlock Format = 1

// Section tags embedded in value files.
const (
	// SketchSection holds the attribute's encoded KMV+bloom sketch.
	SketchSection = blockfile.SectionSketch
	// RunMetaSection holds staging provenance (see RunMeta).
	RunMetaSection = blockfile.SectionRunMeta
)

// ReadCounter tallies items and bytes read across any number of
// cursors. The item count is the measurement instrument for Figure 5;
// the byte count is the I/O behind the same delivered items. Safe for
// concurrent use.
type ReadCounter struct {
	n atomic.Int64
	b atomic.Int64
}

// Add records n items read.
func (c *ReadCounter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Total returns the number of items read so far.
func (c *ReadCounter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// AddBytes records n raw bytes read.
func (c *ReadCounter) AddBytes(n int64) {
	if c != nil {
		c.b.Add(n)
	}
}

// TotalBytes returns the raw bytes read so far. File cursors add their
// byte tally on Close, so the total is complete once they are closed.
func (c *ReadCounter) TotalBytes() int64 {
	if c == nil {
		return 0
	}
	return c.b.Load()
}

// Reset zeroes the counter.
func (c *ReadCounter) Reset() {
	if c != nil {
		c.n.Store(0)
		c.b.Store(0)
	}
}
