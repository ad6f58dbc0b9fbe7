package spider

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// This file is the cross-backend acceptance property: every discovery
// mode must return the identical IND set whichever storage backend
// holds the sorted value sets — block files, plain memory, a read-only
// snapshot, or the per-call memory of the spill backend. The backends
// differ in where bytes live, never in values delivered.

// adversarialDatabase exercises the storage edge cases: values
// containing newlines, NUL bytes (the tuple separator escape), values
// starting with the block magic bytes, empty strings, and long shared
// prefixes (the front-coding path).
func adversarialDatabase(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("adversarial")
	prefix := "shared/prefix/that/front/codes/away/"
	parent := [][]string{
		{"", "\nSPB"}, // empty value; block-magic leading bytes
		{"a\nb", "line\nbreak"},
		{"nul\x00byte", "x"},
		{prefix + "0001", prefix + "0002"},
		{prefix + "0003", "BPS\n"},
		{"1", "plain"},
		{"3", "z"},
	}
	child := [][]string{
		{"", prefix + "0001"},
		{"a\nb", prefix + "0003"},
		{"1", ""},
		{"3", "a\nb"},
	}
	if err := db.AddTable("parent", []string{"id", "code"}, parent); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("child", []string{"pid", "pcode"}, child); err != nil {
		t.Fatal(err)
	}
	return db
}

// formatDatabases are the property test's subjects: the adversarial
// schema plus a paper-shaped dataset with real IND structure.
func formatDatabases(t *testing.T) map[string]func() *Database {
	t.Helper()
	return map[string]func() *Database{
		"adversarial": func() *Database { return adversarialDatabase(t) },
		"uniprot":     func() *Database { return GenerateUniProt(DatasetConfig{Scale: 0.05}) },
	}
}

// storeBackends returns one fresh Store per backend under test.
func storeBackends() map[string]func() *Store {
	return map[string]func() *Store{
		"fs-block": func() *Store { return NewFSStore("") },
		"mem":      func() *Store { return NewMemStore() },
		"snapshot": func() *Store { return NewSnapshotStore() },
		"spill":    func() *Store { return NewSpillStore() },
	}
}

func TestExactINDsIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			want, err := FindINDs(mk(), Options{Algorithm: InMemory})
			if err != nil {
				t.Fatal(err)
			}
			for backend, mkStore := range storeBackends() {
				for _, algo := range []Algorithm{BruteForce, SinglePass, SinglePassBlocked, SpiderMerge} {
					opts := Options{Algorithm: algo, Store: mkStore()}
					label := fmt.Sprintf("%s/%v", backend, algo)
					got, err := FindINDs(mk(), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got.INDs, want.INDs) {
						t.Errorf("%s: INDs = %v, want %v", label, got.INDs, want.INDs)
					}
					if got.Stats.BytesRead == 0 && len(got.INDs) > 0 {
						t.Errorf("%s: BytesRead = 0 with results delivered", label)
					}
				}
			}
		})
	}
}

func TestPartialINDsIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			ref, _, err := FindPartialINDs(mk(), PartialOptions{Threshold: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			for backend, mkStore := range storeBackends() {
				for _, algo := range []Algorithm{BruteForce, SpiderMerge} {
					opts := PartialOptions{Threshold: 0.5, Algorithm: algo, Store: mkStore()}
					label := fmt.Sprintf("%s/%v", backend, algo)
					got, _, err := FindPartialINDs(mk(), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: partials = %v, want %v", label, got, ref)
					}
				}
			}
		})
	}
}

func TestNaryINDsIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			ref, _, err := FindNaryINDs(mk(), NaryOptions{MaxArity: 3, Algorithm: InMemory})
			if err != nil {
				t.Fatal(err)
			}
			for backend, mkStore := range storeBackends() {
				got, _, err := FindNaryINDs(mk(), NaryOptions{MaxArity: 3, Algorithm: SpiderMerge, Store: mkStore()})
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: n-ary INDs = %v, want %v", backend, got, ref)
				}
			}
		})
	}
}

func TestEmbeddedINDsIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	mk := func() *Database { return GenerateUniProt(DatasetConfig{Scale: 0.05}) }
	ref, _, err := FindEmbeddedINDs(mk())
	if err != nil {
		t.Fatal(err)
	}
	for backend, mkStore := range storeBackends() {
		for _, algo := range []Algorithm{BruteForce, SpiderMerge} {
			got, _, err := FindEmbeddedINDsWith(mk(), EmbeddedOptions{Algorithm: algo, Store: mkStore()})
			if err != nil {
				t.Fatalf("%s/%v: %v", backend, algo, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s/%v: embedded INDs = %v, want %v", backend, algo, got, ref)
			}
		}
	}
}

// The format tests below pin the deprecated format arguments
// (Options.Format, NaryOptions.Format and NewFSStore's format) as
// unread: on the fs backend every discovery mode must find the
// identical INDs and read the identical bytes whether a caller leaves
// them unset, as every caller in this module does, or passes
// FormatBlock, as perfbench/ does. The …AcrossBackends tests above
// check the INDs themselves against the in-memory reference. All of
// these go with the deprecated names (ROADMAP item 1).

// sameForFormatArgs runs one discovery mode on each database of
// formatDatabases, once with the format arguments unset and once with
// FormatBlock, and requires identical outcomes.
func sameForFormatArgs(t *testing.T, run func(db *Database, format Format) (any, error)) {
	t.Helper()
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			unset, err := run(mk(), 0)
			if err != nil {
				t.Fatalf("unset: %v", err)
			}
			block, err := run(mk(), FormatBlock)
			if err != nil {
				t.Fatalf("FormatBlock: %v", err)
			}
			if !reflect.DeepEqual(unset, block) {
				t.Errorf("with FormatBlock: %v, unset: %v", block, unset)
			}
		})
	}
}

func TestExactINDsIdenticalAcrossFormats(t *testing.T) {
	sameForFormatArgs(t, func(db *Database, format Format) (any, error) {
		r, err := FindINDs(db, Options{Algorithm: SpiderMerge, Format: format, Store: NewFSStore("", format)})
		if err != nil {
			return nil, err
		}
		return []any{r.INDs, r.Stats.BytesRead}, nil
	})
}

func TestPartialINDsIdenticalAcrossFormats(t *testing.T) {
	sameForFormatArgs(t, func(db *Database, format Format) (any, error) {
		got, stats, err := FindPartialINDs(db, PartialOptions{Threshold: 0.5, Algorithm: SpiderMerge, Store: NewFSStore("", format)})
		return []any{got, stats.BytesRead}, err
	})
}

func TestNaryINDsIdenticalAcrossFormats(t *testing.T) {
	sameForFormatArgs(t, func(db *Database, format Format) (any, error) {
		got, stats, err := FindNaryINDs(db, NaryOptions{MaxArity: 3, Algorithm: SpiderMerge, Format: format, Store: NewFSStore("", format)})
		return []any{got, stats.BytesReadByArity}, err
	})
}

func TestEmbeddedINDsIdenticalAcrossFormats(t *testing.T) {
	sameForFormatArgs(t, func(db *Database, format Format) (any, error) {
		got, stats, err := FindEmbeddedINDsWith(db, EmbeddedOptions{Algorithm: SpiderMerge, Store: NewFSStore("", format)})
		return []any{got, stats.BytesRead}, err
	})
}

// TestSnapshotBackendConcurrentReaders runs concurrent FindINDs calls
// that share one snapshot store: each stages into the shared memory
// and reads through its own snapshot of it while the others write, and
// every call must produce the exact IND set. Run under -race this is
// the indserved serving-path precondition.
func TestSnapshotBackendConcurrentReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	db := GenerateUniProt(DatasetConfig{Scale: 0.05})
	want, err := FindINDs(db, Options{Algorithm: InMemory})
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSnapshotStore()
	algos := []Algorithm{BruteForce, SinglePass, SpiderMerge, SpiderMerge}
	var wg sync.WaitGroup
	for _, algo := range algos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := FindINDs(db, Options{Algorithm: algo, Store: shared})
			if err != nil {
				t.Errorf("%v: %v", algo, err)
				return
			}
			if !reflect.DeepEqual(got.INDs, want.INDs) {
				t.Errorf("%v: INDs = %v, want %v", algo, got.INDs, want.INDs)
			}
		}()
	}
	wg.Wait()
}

// TestEmbeddedDerivedSetsShareTheStore pins the one data path: with an
// fs store and no WorkDir, the derived value sets land in the store's
// own directory next to the exported ones, and nothing goes to a
// temporary directory.
func TestEmbeddedDerivedSetsShareTheStore(t *testing.T) {
	dir := t.TempDir()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := NewDatabase("embed")
	if err := db.AddTable("entries", []string{"code"}, [][]string{{"1abc"}, {"2def"}, {"3ghi"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("xrefs", []string{"pdb_ref"}, [][]string{{"PDB-1abc"}, {"PDB-2def"}}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BruteForce, SpiderMerge} {
		got, _, err := FindEmbeddedINDsWith(db, EmbeddedOptions{Algorithm: algo, Store: NewFSStore(dir)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0].String() != "xrefs.pdb_ref[after-dash] ⊆ entries.code" {
			t.Errorf("%v: embedded INDs = %v", algo, got)
		}
		derived, err := filepath.Glob(filepath.Join(dir, "derived_*.val"))
		if err != nil {
			t.Fatal(err)
		}
		if len(derived) == 0 {
			t.Errorf("%v: no derived value set in the store's directory", algo)
		}
		assertEmptyDir(t, tmp)
	}
}

// TestEntryPointsLeaveNoTempFiles runs every public entry point on
// zero-value options, where a nil Store is the fs backend in a
// temporary directory: the call must remove it before returning.
func TestEntryPointsLeaveNoTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := demoDatabase(t)
	if _, err := FindINDs(db, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FindPartialINDs(db, PartialOptions{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{InMemory, SpiderMerge} {
		if _, _, err := FindNaryINDs(db, NaryOptions{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := FindEmbeddedINDs(db); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, tmp)

	// Invalid options fail before any storage is opened: with TMPDIR
	// missing, making a temporary directory would fail another way.
	t.Setenv("TMPDIR", filepath.Join(tmp, "missing"))
	_, errExact := FindINDs(db, Options{Algorithm: Algorithm(99), SketchPrefilter: true})
	_, _, errPartial := FindPartialINDs(db, PartialOptions{Threshold: 1.5})
	_, _, errNary := FindNaryINDs(db, NaryOptions{Algorithm: SQLJoin})
	_, _, errEmbedded := FindEmbeddedINDsWith(db, EmbeddedOptions{Algorithm: InMemory})
	for want, err := range map[string]error{
		"unknown algorithm":               errExact,
		"partial threshold must be in":    errPartial,
		"n-ary discovery supports":        errNary,
		"embedded IND discovery supports": errEmbedded,
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got error %v, want one containing %q", err, want)
		}
	}
	assertEmptyDir(t, tmp)
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s left behind in %s", e.Name(), dir)
	}
}
