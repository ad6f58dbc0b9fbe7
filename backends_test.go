package spider

import (
	"fmt"
	"reflect"
	"testing"
)

// This file is the cross-backend acceptance property: every discovery
// mode must return the identical IND set whichever storage backend
// holds the sorted value sets — files in either encoding, plain
// memory, a read-only snapshot, or frozen spill runs. The backends
// differ in where bytes live, never in values delivered.

// storeBackends returns one fresh Store per backend under test.
func storeBackends() map[string]func() *Store {
	return map[string]func() *Store{
		"fs-text":  func() *Store { return NewFSStore("", FormatText) },
		"fs-block": func() *Store { return NewFSStore("", FormatBlock) },
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
				for _, algo := range []Algorithm{BruteForce, BruteForceParallel, SinglePass, SinglePassBlocked, SpiderMerge} {
					for _, shards := range []int{1, 4} {
						if shards > 1 && algo != SpiderMerge {
							continue
						}
						opts := Options{Algorithm: algo, Shards: shards, Store: mkStore()}
						label := fmt.Sprintf("%s/%v/shards=%d", backend, algo, shards)
						got, err := FindINDs(mk(), opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(got.INDs, want.INDs) {
							t.Errorf("%s: INDs = %v, want %v", label, got.INDs, want.INDs)
						}
						// Spill cursors count only bytes read from run files;
						// value sets that fit the sort buffer read none.
						if got.Stats.BytesRead == 0 && len(got.INDs) > 0 && backend != "spill" {
							t.Errorf("%s: BytesRead = 0 with results delivered", label)
						}
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
					for _, shards := range []int{1, 4} {
						if shards > 1 && algo != SpiderMerge {
							continue
						}
						opts := PartialOptions{
							Threshold: 0.5, Algorithm: algo, Shards: shards, Store: mkStore(),
						}
						label := fmt.Sprintf("%s/%v/shards=%d", backend, algo, shards)
						got, _, err := FindPartialINDs(mk(), opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s: partials = %v, want %v", label, got, ref)
						}
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
				for _, shards := range []int{1, 4} {
					opts := NaryOptions{
						MaxArity: 3, Algorithm: SpiderMerge, Shards: shards, Store: mkStore(),
					}
					label := fmt.Sprintf("%s/shards=%d", backend, shards)
					got, _, err := FindNaryINDs(mk(), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: n-ary INDs = %v, want %v", label, got, ref)
					}
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

// TestSnapshotBackendConcurrentReaders runs the parallel engine over a
// snapshot store with a wide worker pool: the read-only snapshot must
// serve all workers concurrently and produce the exact IND set. Run
// under -race this is the indserved serving-path precondition.
func TestSnapshotBackendConcurrentReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	db := GenerateUniProt(DatasetConfig{Scale: 0.05})
	want, err := FindINDs(db, Options{Algorithm: InMemory})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindINDs(db, Options{
		Algorithm: BruteForceParallel, Workers: 8, Store: NewSnapshotStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.INDs, want.INDs) {
		t.Errorf("INDs = %v, want %v", got.INDs, want.INDs)
	}
}
