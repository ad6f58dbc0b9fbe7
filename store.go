package spider

import (
	"fmt"
	"os"

	"spider/internal/store"
)

// Store selects the dataset backend attribute value sets are extracted
// into and the discovery engines read from. Every value set a discovery
// call stages, the derived sets of FindEmbeddedINDsWith included, goes
// into this one backend under plain keys (file names, for the fs
// backend). The zero value of the option structs (a nil *Store) is the
// fs backend rooted at their WorkDir.
//
// Four backends exist:
//
//   - NewFSStore: block value files on disk — the paper's layout.
//     Extraction output survives the run and can be inspected or
//     re-served.
//   - NewMemStore: everything in memory. No files are created;
//     extraction and verification run against sorted in-memory slices.
//   - NewSnapshotStore: extraction lands in memory, and the engines
//     read through a read-only snapshot view of that memory, which
//     holds no copy of its own — the serving shape a long-lived IND
//     service needs, safe for any number of concurrent readers.
//   - NewSpillStore: no value files at all, and nothing kept between
//     calls. Every discovery call stages its value sets into a fresh
//     in-memory dataset that is dropped when the call returns, so a
//     spill-backed result cannot be saved. The name is historical: the
//     sets used to stay in external-sort spill runs.
//
// A Store value may be reused across calls; the mem and snapshot
// backends then accumulate and re-serve the same attribute value sets,
// while the spill backend starts empty on every call.
type Store struct {
	kind storeKind
	dir  string
	mem  *store.Mem
}

type storeKind int

const (
	storeKindFS storeKind = iota
	storeKindMem
	storeKindSnapshot
	storeKindSpill
)

// NewFSStore returns a filesystem-backed store rooted at dir; dir is
// created on the first write. An empty dir defers to the run's work
// directory (Options.WorkDir, or a temporary directory removed when
// the call returns).
//
// The format argument is deprecated: unread; perfbench/ still sets it.
func NewFSStore(dir string, format ...Format) *Store {
	return &Store{kind: storeKindFS, dir: dir}
}

// NewMemStore returns an in-memory store: extraction writes sorted
// slices, engines read them, nothing touches disk.
func NewMemStore() *Store {
	return &Store{kind: storeKindMem, mem: store.NewMem()}
}

// NewSnapshotStore returns a store whose extraction side is in-memory
// and whose engine side is a read-only view of that memory, safe for
// concurrent readers. Each value set is held once.
func NewSnapshotStore() *Store {
	return &Store{kind: storeKindSnapshot, mem: store.NewMem()}
}

// NewSpillStore returns a store that gives every discovery call a fresh
// in-memory dataset for its value sets and drops it when the call
// returns. Unlike NewMemStore, nothing accumulates across calls.
func NewSpillStore() *Store {
	return &Store{kind: storeKindSpill}
}

// ParseBackend maps a backend name ("fs", "mem", "snapshot" or "spill";
// "" means fs) onto a store; dir roots the fs backend and is ignored by
// the others.
func ParseBackend(name, dir string) (*Store, error) {
	switch name {
	case "", "fs":
		return NewFSStore(dir), nil
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

// spill reports whether the store is the spill backend.
func (s *Store) spill() bool {
	return s != nil && s.kind == storeKindSpill
}

// open resolves the store for one discovery call into the dataset
// extraction writes to, the dataset the engines read from, and a
// cleanup the caller defers. Every public entry point resolves its
// storage here. A nil store is the fs backend. The fs
// backend is rooted at its own directory, else at workDir, else at a
// temporary directory the cleanup removes. The snapshot backend reads
// through a fresh read-only view of its memory; the spill backend
// gets a fresh in-memory dataset, so no value set outlives the call.
func (s *Store) open(workDir string) (write, read store.Dataset, cleanup func(), err error) {
	if s == nil {
		s = NewFSStore("")
	}
	cleanup = func() {}
	switch s.kind {
	case storeKindMem:
		return s.mem, s.mem, cleanup, nil
	case storeKindSnapshot:
		return s.mem, store.NewSnapshot(s.mem), cleanup, nil
	case storeKindSpill:
		mem := store.NewMem()
		return mem, mem, cleanup, nil
	}
	dir := s.dir
	if dir == "" {
		dir = workDir
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "spider-*")
		if err != nil {
			return nil, nil, nil, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	fs := store.NewFS(dir)
	return fs, fs, cleanup, nil
}
