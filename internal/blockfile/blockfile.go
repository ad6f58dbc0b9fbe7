// Package blockfile implements the versioned binary attribute-file
// format: a fixed header, front-coded (prefix-compressed) value blocks
// with per-block CRC-32C checksums, optional named sections (embedded
// sketch, run metadata), a block index keyed by first value, and a
// fixed-size footer that locates the index and section directory. One
// attribute is one file open: values, sketch and run provenance travel
// together.
//
// The format is documented in README.md next to this file. Layering:
// blockfile knows nothing about datasets, sketches or sorting — it
// stores ordered byte strings and opaque sections. internal/store opens
// and creates these files and owns the read counting.
//
// The magic is checked first, so a file in another encoding fails with
// ErrNoMagic. Its first byte is '\n' (0x0A): the text interchange
// encoding of cmd/valconvert escapes every newline inside a value, so a
// text file starts with 0x0A only when its first value is empty, and
// matches the whole magic only when its second value starts with "SPB".
package blockfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a block-format attribute file; it is the first four
// bytes of the file. TailMagic is the last four.
var (
	Magic     = [4]byte{'\n', 'S', 'P', 'B'}
	TailMagic = [4]byte{'B', 'P', 'S', '\n'}
)

// Version is the current format version. Readers reject files with a
// higher version or with any flag bit set (all bits are reserved in
// version 1): forward compatibility is explicit, never silent.
const Version = 1

const (
	headerSize      = 16
	footerSize      = 52
	blockHeaderSize = 12
	dirEntrySize    = 24

	// DefaultTargetBlockSize is the uncompressed payload size at which
	// the writer seals a block. 8 KiB keeps a block a couple of disk
	// pages while amortising the 12-byte block header and one index
	// entry over hundreds of values.
	DefaultTargetBlockSize = 8 << 10

	// maxBlockPayload bounds a single block's payload so a corrupt
	// length field cannot force a multi-gigabyte allocation.
	maxBlockPayload = 16 << 20

	// maxRunBytes bounds the decoded bytes a reader materialises at
	// once. Front coding lets a small payload expand quadratically
	// (every record may repeat the whole previous value), so a block
	// that decodes to more is decoded in several runs of about this
	// size; a run always holds at least one value.
	maxRunBytes = 1 << 20

	// maxSections bounds the section directory for the same reason.
	maxSections = 1024
)

// Section tags used by the spider pipeline. Tags are four ASCII bytes;
// unknown tags are preserved by readers and the valconvert tool.
const (
	// SectionSketch holds a sketch.Encode payload (KMV minima + bloom
	// filter) for the attribute.
	SectionSketch = "SKCH"
	// SectionRunMeta holds staging provenance for the file: values
	// observed before dedup and the number of spill runs merged (0 for
	// every set sorted in memory).
	SectionRunMeta = "RUNM"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps every structural decoding failure so callers can
// distinguish a damaged file from an I/O error.
var ErrCorrupt = errors.New("blockfile: corrupt file")

// ErrNoMagic reports a file that does not start with Magic: not a
// damaged block file but one in another encoding. It wraps ErrCorrupt.
var ErrNoMagic = fmt.Errorf("%w: no block-format magic", ErrCorrupt)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// HasMagic reports whether b begins with the block-format magic. A
// shorter prefix is never a block file.
func HasMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == Magic[0] && b[1] == Magic[1] &&
		b[2] == Magic[2] && b[3] == Magic[3]
}

// indexEntry locates one sealed block.
type indexEntry struct {
	off   int64  // file offset of the block header
	count int    // records in the block
	first string // first (smallest) value in the block
}

// dirEntry locates one named section.
type dirEntry struct {
	tag string
	off int64
	len int64
	crc uint32
}

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func u32(b []byte) uint32       { return binary.LittleEndian.Uint32(b) }
func u64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
