package ind

import (
	"path/filepath"
	"reflect"
	"testing"

	"spider/internal/relstore"
	"spider/internal/store"
	"spider/internal/valfile"
)

// writeValueFile writes an already sorted, distinct slice as the value
// file at path and returns the number of values written.
func writeValueFile(path string, sorted []string) (int, error) {
	w, err := store.CreateFile(path)
	if err != nil {
		return 0, err
	}
	for _, v := range sorted {
		if err := w.Append(v); err != nil {
			w.Close()
			return 0, err
		}
	}
	return w.Len(), w.Close()
}

func drain(t *testing.T, c Cursor) []string {
	t.Helper()
	var out []string
	for {
		v, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreSource checks the engines' uniform dataset access path: keys
// resolve via Attribute.Key, missing exports fail loudly.
func TestStoreSource(t *testing.T) {
	mem := store.NewMem()
	mem.SetValues("a.val", []string{"x", "y"})
	var counter valfile.ReadCounter
	src, err := newSource(mem, &counter)
	if err != nil {
		t.Fatal(err)
	}
	a := &Attribute{ID: 7, Ref: relstore.ColumnRef{Table: "t", Column: "a"}, Key: "a.val"}
	cur, err := src.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("values = %v", got)
	}
	if counter.Total() != 2 {
		t.Errorf("counted %d items", counter.Total())
	}
	if _, err := src.Open(&Attribute{ID: 8, Ref: relstore.ColumnRef{Table: "t", Column: "b"}}); err == nil {
		t.Error("attribute without a store key must fail")
	}
	if _, err := src.Open(&Attribute{ID: 9, Ref: relstore.ColumnRef{Table: "t", Column: "c"}, Key: "missing.val"}); err == nil {
		t.Error("missing key must fail")
	}
}

// TestFileSourceRoundTrip: a filesystem dataset serves the value file
// its root holds under the attribute's key; a nil dataset is refused.
func TestFileSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeValueFile(filepath.Join(dir, "a.val"), []string{"1", "2", "3"}); err != nil {
		t.Fatal(err)
	}
	a := &Attribute{ID: 0, Ref: relstore.ColumnRef{Table: "t", Column: "a"}, Key: "a.val"}
	var counter valfile.ReadCounter
	src, err := newSource(store.NewFS(dir), &counter)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := src.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Errorf("values = %v", got)
	}
	if counter.Total() != 3 {
		t.Errorf("counted %d items", counter.Total())
	}
	if _, err := src.Open(&Attribute{Ref: relstore.ColumnRef{Table: "t", Column: "b"}}); err == nil {
		t.Error("unexported attribute must fail")
	}
	if _, err := newSource(nil, nil); err == nil {
		t.Error("a nil dataset must fail")
	}
}

func TestMemSourceFixture(t *testing.T) {
	a := &Attribute{ID: 7, Ref: relstore.ColumnRef{Table: "t", Column: "a"}}
	src, err := newSource(memSource([]*Attribute{a}, map[int][]string{7: {"x", "y"}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := src.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("values = %v", got)
	}
	if _, err := src.Open(&Attribute{ID: 8, Ref: relstore.ColumnRef{Table: "t", Column: "b"}}); err == nil {
		t.Error("missing set must fail")
	}
}

// TestAlgorithmOneOverMemory runs the paper's Algorithm 1 over pure
// in-memory cursors: the engine is storage-agnostic.
func TestAlgorithmOneOverMemory(t *testing.T) {
	cases := []struct {
		dep, ref []string
		want     bool
	}{
		{[]string{"a", "b"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "d"}, []string{"a", "b", "c"}, false},
		{nil, []string{"a"}, true},
		{[]string{"a"}, nil, false},
		{nil, nil, true},
	}
	for i, c := range cases {
		var st Stats
		got, err := algorithmOne(store.NewSliceCursor(c.dep, nil), store.NewSliceCursor(c.ref, nil), &st)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("case %d: algorithmOne(%v ⊆ %v) = %v, want %v", i, c.dep, c.ref, got, c.want)
		}
	}
}
