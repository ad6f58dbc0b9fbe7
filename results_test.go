package spider

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestResultSetSaveLoad round-trips a discovery run through the
// persisted result-set file — the handoff consumed by indserved.
func TestResultSetSaveLoad(t *testing.T) {
	db := demoDatabase(t)
	res, err := FindINDs(db, Options{Algorithm: SpiderMerge})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "INDS.json")
	if err := res.SaveResultSet(path); err != nil {
		t.Fatal(err)
	}

	rs, err := LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Dataset != "demo" || rs.Algorithm != "spider-merge" {
		t.Errorf("header = %q %q", rs.Dataset, rs.Algorithm)
	}
	if len(rs.Attributes) != 4 {
		t.Errorf("attributes = %d, want 4", len(rs.Attributes))
	}
	byName := map[string]AttributeMeta{}
	for _, a := range rs.Attributes {
		byName[a.Name()] = a
	}
	pid := byName["parent.id"]
	if pid.Distinct != 3 || !pid.Unique || pid.Key == "" {
		t.Errorf("parent.id = %+v", pid)
	}
	if !reflect.DeepEqual(rs.INDs, res.INDs) {
		t.Errorf("INDs = %v, want %v", rs.INDs, res.INDs)
	}

	if _, err := LoadResultSet(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveResultSetWithoutCatalog pins the error for results that never
// staged value sets.
func TestSaveResultSetWithoutCatalog(t *testing.T) {
	r := &Result{}
	if err := r.SaveResultSet(t.TempDir() + "/x.json"); err == nil {
		t.Error("empty result accepted")
	}
}

// TestSaveResultSetSpill: a spill-backed run's value sets are gone once
// FindINDs returns, so saving its result set fails with the named error
// and writes nothing.
func TestSaveResultSetSpill(t *testing.T) {
	res, err := FindINDs(demoDatabase(t), Options{Algorithm: SpiderMerge, Store: NewSpillStore()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "INDS.json")
	if err := res.SaveResultSet(path); !errors.Is(err, ErrSpillResult) {
		t.Fatalf("SaveResultSet = %v, want ErrSpillResult", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill result set written anyway (stat err %v)", err)
	}
}
