package spider

import (
	"fmt"

	"spider/internal/extsort"
	"spider/internal/store"
)

// Store selects the dataset backend attribute value sets are extracted
// into and the discovery engines read from. The zero value of the
// option structs (a nil *Store) keeps the historical behaviour: sorted
// value files under the run's work directory.
//
// Four backends exist:
//
//   - NewFSStore: value files on disk, in the text or block encoding —
//     the paper's layout. Extraction output survives the run and can be
//     inspected or re-served.
//   - NewMemStore: everything in memory. No files are created (sort
//     spills excepted); extraction and verification run against sorted
//     in-memory slices.
//   - NewSnapshotStore: extraction lands in memory, and the engines
//     read through an immutable read-only snapshot that caches each
//     value set on first use — the serving shape a long-lived IND
//     service needs, safe for any number of concurrent readers.
//   - NewSpillStore: no value files at all. Each attribute's value set
//     stays in its external sort's frozen spill runs, which the engines
//     replay in place; extraction and verification become one pipeline.
//     The runs live for one discovery call and are removed when it
//     returns, so a spill-backed result cannot be saved.
//
// A Store value may be reused across calls; the mem and snapshot
// backends then accumulate and re-serve the same attribute value sets,
// while the spill backend starts empty on every call.
type Store struct {
	kind   storeKind
	dir    string
	format Format
	mem    *store.Mem
}

type storeKind int

const (
	storeKindFS storeKind = iota
	storeKindMem
	storeKindSnapshot
	storeKindSpill
)

// NewFSStore returns a filesystem-backed store rooted at dir, writing
// newly extracted value sets in format. An empty dir defers to the
// run's work directory (Options.WorkDir, or a temporary directory).
func NewFSStore(dir string, format Format) *Store {
	return &Store{kind: storeKindFS, dir: dir, format: format}
}

// NewMemStore returns an in-memory store: extraction writes sorted
// slices, engines read them, nothing touches disk except sort spills.
func NewMemStore() *Store {
	return &Store{kind: storeKindMem, mem: store.NewMem()}
}

// NewSnapshotStore returns a store whose extraction side is in-memory
// and whose engine side is a read-only snapshot over it, safe for
// concurrent readers.
func NewSnapshotStore() *Store {
	return &Store{kind: storeKindSnapshot, mem: store.NewMem()}
}

// NewSpillStore returns a store that keeps every extracted value set in
// the frozen spill runs of its external sort, replayed in place by the
// engines and removed when the discovery call returns. Spill runs are
// written in the run's Format under its WorkDir (the system temporary
// directory when empty).
func NewSpillStore() *Store {
	return &Store{kind: storeKindSpill}
}

// ParseBackend maps a backend name ("fs", "mem", "snapshot" or "spill";
// "" means fs) onto a store; dir and format configure the fs backend
// and are ignored by the others.
func ParseBackend(name, dir string, format Format) (*Store, error) {
	switch name {
	case "", "fs":
		return NewFSStore(dir, format), nil
	case "mem":
		return NewMemStore(), nil
	case "snapshot":
		return NewSnapshotStore(), nil
	case "spill":
		return NewSpillStore(), nil
	default:
		return nil, fmt.Errorf("spider: unknown backend %q (want fs, mem, snapshot or spill)", name)
	}
}

// String names the backend.
func (s *Store) String() string {
	if s == nil {
		return "fs"
	}
	switch s.kind {
	case storeKindMem:
		return "mem"
	case storeKindSnapshot:
		return "snapshot"
	case storeKindSpill:
		return "spill"
	default:
		return "fs"
	}
}

// needsDir reports whether the run must provide a work directory for
// the store's extraction output (the fs backend without its own root).
func (s *Store) needsDir() bool {
	return s == nil || (s.kind == storeKindFS && s.dir == "")
}

// noValueFiles reports whether extraction never writes value files
// (the mem, snapshot and spill backends).
func (s *Store) noValueFiles() bool {
	return s != nil && s.kind != storeKindFS
}

// spill reports whether the store is the spill backend.
func (s *Store) spill() bool {
	return s != nil && s.kind == storeKindSpill
}

// datasets resolves the store to its extraction-side and engine-side
// datasets for one call rooted at workDir, plus the release the call
// must defer. A nil store resolves to nil datasets: value files under
// workDir, read back by path. For the snapshot backend the two differ:
// writes land in the backing memory, reads go through a fresh read-only
// snapshot of it. The spill backend creates a fresh spill dataset whose
// release removes every run, so no spill file outlives the call.
func (s *Store) datasets(workDir string) (write, read store.Dataset, release func()) {
	noop := func() {}
	if s == nil {
		return nil, nil, noop
	}
	switch s.kind {
	case storeKindMem:
		return s.mem, s.mem, noop
	case storeKindSnapshot:
		return s.mem, store.NewSnapshot(s.mem), noop
	case storeKindSpill:
		sp := extsort.NewSpill()
		return sp, sp, func() { sp.Close() }
	default:
		dir := s.dir
		if dir == "" {
			dir = workDir
		}
		fs := store.NewFS(dir, s.format.internal())
		return fs, fs, noop
	}
}
