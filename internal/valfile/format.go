package valfile

import (
	"fmt"
	"io"
	"os"

	"spider/internal/blockfile"
)

// Format selects the on-disk encoding of a value file. Readers never
// need it — they sniff the file — but writers must choose.
type Format int

const (
	// FormatText is the seed encoding: newline-framed, backslash-escaped
	// records. Human-inspectable, no metadata.
	FormatText Format = iota
	// FormatBlock is the columnar binary encoding (internal/blockfile):
	// front-coded checksummed blocks, a block index, and embedded
	// sections for the sketch and run metadata.
	FormatBlock
)

// String returns the name accepted by ParseFormat.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBlock:
		return "block"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a format name ("text" or "block") to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "block":
		return FormatBlock, nil
	default:
		return 0, fmt.Errorf("valfile: unknown format %q (want text or block)", s)
	}
}

// Section tags embedded in block-format files. Text files carry no
// sections; their sketch lives in a sidecar (sketch.FileSuffix).
const (
	// SketchSection holds the attribute's encoded KMV+bloom sketch.
	SketchSection = blockfile.SectionSketch
	// RunMetaSection holds staging provenance (see RunMeta).
	RunMetaSection = blockfile.SectionRunMeta
)

// DetectFormat reports the encoding of the file at path by sniffing its
// first bytes. Files shorter than the magic are text (an empty text
// file is zero bytes; no block file is shorter than its header).
func DetectFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("valfile: %w", err)
	}
	defer f.Close()
	var magic [4]byte
	n, err := f.ReadAt(magic[:], 0)
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("valfile: %s: %w", path, err)
	}
	if blockfile.HasMagic(magic[:n]) {
		return FormatBlock, nil
	}
	return FormatText, nil
}

// ReadSection returns the payload of the named embedded section of the
// file at path. ok is false when the file is text-format or has no such
// section; err is non-nil only for I/O or corruption problems.
func ReadSection(path, tag string) (data []byte, ok bool, err error) {
	format, err := DetectFormat(path)
	if err != nil {
		return nil, false, err
	}
	if format != FormatBlock {
		return nil, false, nil
	}
	blk, err := blockfile.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("valfile: %w", err)
	}
	defer blk.Close()
	return blk.Section(tag)
}
