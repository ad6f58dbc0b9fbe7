package ind

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// discover runs the fixture through export + merge and persists the
// outcome as a result set.
func discoverResultSet(t *testing.T) ([]*Attribute, []IND, *ResultSet) {
	t.Helper()
	db := buildDB(t)
	attrs := prepare(t, db)
	cands, _ := GenerateCandidates(attrs, GenOptions{})
	res, err := SpiderMerge(cands, SpiderMergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewResultSet("unit", "spider-merge", attrs, res.Satisfied)
	if err != nil {
		t.Fatal(err)
	}
	return attrs, res.Satisfied, rs
}

func TestResultSetRoundTrip(t *testing.T) {
	attrs, satisfied, rs := discoverResultSet(t)

	path := filepath.Join(t.TempDir(), "INDS.json")
	if err := rs.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != ResultSetSchema || back.Dataset != "unit" || back.Algorithm != "spider-merge" {
		t.Fatalf("header = %+v", back)
	}

	attrs2, err := back.Attributes()
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs2) != len(attrs) {
		t.Fatalf("attrs = %d, want %d", len(attrs2), len(attrs))
	}
	for i, a := range attrs {
		b := attrs2[a.ID]
		if b.Ref != a.Ref || b.Kind != a.Kind || b.Rows != a.Rows || b.NonNull != a.NonNull ||
			b.Distinct != a.Distinct || b.Unique != a.Unique || b.Key != a.Key ||
			b.MinCanonical != a.MinCanonical || b.MaxCanonical != a.MaxCanonical {
			t.Errorf("attr %d: got %+v, want %+v", i, b, a)
		}
	}

	want := append([]IND(nil), satisfied...)
	sortINDs(want)
	if got := back.INDList(attrs2); !reflect.DeepEqual(got, want) {
		t.Errorf("INDs = %v, want %v", got, want)
	}
}

func TestDecodeResultSetRejectsCorruptInput(t *testing.T) {
	_, _, rs := discoverResultSet(t)
	var buf bytes.Buffer
	if err := rs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	for name, corrupt := range map[string]string{
		"not json":         "][",
		"empty":            "",
		"wrong schema":     strings.Replace(good, ResultSetSchema, "spider-inds/v999", 1),
		"unknown kind":     strings.Replace(good, `"INTEGER"`, `"QUANTUM"`, 1),
		"ind out of range": strings.Replace(good, `"inds": [`, `"inds": [[0, 999],`, 1),
		"negative id":      strings.Replace(good, `"id": 0,`, `"id": -1,`, 1),
	} {
		if _, err := DecodeResultSet(strings.NewReader(corrupt)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Duplicate attribute IDs.
	dup := strings.Replace(good, `"id": 1,`, `"id": 0,`, 1)
	if _, err := DecodeResultSet(strings.NewReader(dup)); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestNewResultSetRejectsUnexported(t *testing.T) {
	db := buildDB(t)
	attrs, err := CollectAttributes(db)
	if err != nil {
		t.Fatal(err)
	}
	// Never exported: StoreKey is empty.
	if _, err := NewResultSet("unit", "spider-merge", attrs, nil); err == nil {
		t.Error("unexported attributes accepted")
	}
}

// escapingKeys are dataset keys that do not name a file directly inside
// the dataset directory.
var escapingKeys = []string{
	"/abs/a.val",
	"../a.val",
	"sub/a.val",
	".",
	"..",
}

func TestNewResultSetRejectsEscapingKeys(t *testing.T) {
	attrs := prepare(t, buildDB(t))
	for _, key := range escapingKeys {
		attrs[0].Key = key
		if _, err := NewResultSet("unit", "spider-merge", attrs, nil); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
	// A file path without a key is not a substitute for one.
	attrs[0].Path, attrs[0].Key = "/abs/a.val", ""
	if _, err := NewResultSet("unit", "spider-merge", attrs, nil); err == nil {
		t.Error("attribute with a path but no key accepted")
	}
}

func TestDecodeResultSetRejectsEscapingKeys(t *testing.T) {
	_, _, rs := discoverResultSet(t)
	for _, key := range escapingKeys {
		bad := *rs
		bad.Attrs = append([]ResultSetAttr(nil), rs.Attrs...)
		bad.Attrs[0].Key = key
		var buf bytes.Buffer
		if err := bad.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResultSet(&buf); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}
