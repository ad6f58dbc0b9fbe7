// Package blockfile is a fixture stub mirroring spider/internal/blockfile:
// just enough surface for storeseam to resolve the gated entry points.
package blockfile

// Reader mirrors the block-file reader.
type Reader struct{}

func (r *Reader) Next() (string, bool) { return "", false }
func (r *Reader) Err() error           { return nil }
func (r *Reader) Close() error         { return nil }

// Writer mirrors the block-file writer.
type Writer struct{}

func (w *Writer) Append(v string) error { return nil }
func (w *Writer) Close() error          { return nil }

// Options mirrors the writer options.
type Options struct{ TargetBlockSize int }

// The gated entry points: open and create a value stream.

func Open(path string) (*Reader, error) { return &Reader{}, nil }

func Create(path string, opts Options) (*Writer, error) { return &Writer{}, nil }

// Format plumbing stays callable everywhere: it inspects bytes without
// opening a value stream.

func HasMagic(b []byte) bool { return false }
