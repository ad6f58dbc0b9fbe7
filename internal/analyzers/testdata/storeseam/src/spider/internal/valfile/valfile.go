// Package valfile is a fixture stub mirroring spider/internal/valfile:
// just enough surface for storeseam to resolve the gated entry points.
package valfile

// Format mirrors the encoding selector.
type Format int

// ReadCounter mirrors the shared read counter.
type ReadCounter struct{ n int64 }

// Reader mirrors the sorted value-file reader.
type Reader struct{}

func (r *Reader) Next() (string, bool) { return "", false }
func (r *Reader) Err() error           { return nil }
func (r *Reader) Close() error         { return nil }

// Writer mirrors the value-file writer.
type Writer struct{}

func (w *Writer) Append(v string) error { return nil }
func (w *Writer) Close() error          { return nil }

// The gated entry points: open, create and bulk read/write.

func Open(path string, counter *ReadCounter) (*Reader, error) { return &Reader{}, nil }

func Create(path string) (*Writer, error) { return &Writer{}, nil }

func CreateFormat(path string, format Format) (*Writer, error) { return &Writer{}, nil }

func WriteAll(path string, sorted []string) (int, error) { return 0, nil }

func WriteAllFormat(path string, sorted []string, format Format) (int, error) { return 0, nil }

func ReadAll(path string) ([]string, error) { return nil, nil }

func ReadSection(path, tag string) (data []byte, ok bool, err error) { return nil, false, nil }

// Format plumbing stays callable everywhere: it inspects encodings
// without opening a value stream.

func ParseFormat(s string) (Format, error) { return 0, nil }

func DetectFormat(path string) (Format, error) { return 0, nil }
