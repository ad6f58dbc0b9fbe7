package extsort

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"spider/internal/store"
	"spider/internal/valfile"
)

// stageSpill pushes vals through a tiny-budget sorter and stages it in
// sp under key, committing the writer with one section attached.
func stageSpill(t *testing.T, sp *Spill, dir, key string, vals []string, observe func(string)) (n int, max string) {
	t.Helper()
	s := New(Config{MaxInMemory: 4, TempDir: dir})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	w, max, meta, err := sp.Stage(key, s, observe)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetSection(valfile.RunMetaSection, meta.Encode()); err != nil {
		t.Fatal(err)
	}
	n = w.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return n, max
}

func readAll(t *testing.T, c store.Cursor) []string {
	t.Helper()
	defer c.Close()
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
	return out
}

// TestSpillDataset pins the spill backend's Dataset contract: staged
// keys replay their sorted distinct set any number of times, whole or
// by range; sections and run
// metadata stay in memory; Create is read-only; Remove and Close leave
// no spill run behind.
func TestSpillDataset(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpill()
	var vals []string
	for i := 0; i < 90; i++ {
		vals = append(vals, fmt.Sprintf("v%02d", (i*7)%37))
	}
	want := sortedDistinct(vals)
	var seen []string
	n, max := stageSpill(t, sp, dir, "a.val", vals, func(v string) { seen = append(seen, v) })
	if n != len(want) || max != want[len(want)-1] || !reflect.DeepEqual(seen, want) {
		t.Fatalf("Stage = (%d, %q), observed %d values; want (%d, %q)", n, max, len(seen), len(want), want[len(want)-1])
	}
	stageSpill(t, sp, dir, "b.val", []string{"x"}, nil)

	for i := 0; i < 2; i++ { // replayable
		c, err := sp.Open("a.val", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d = %v, want %v", i, got, want)
		}
	}
	data, ok, err := sp.Section("a.val", valfile.RunMetaSection)
	if err != nil || !ok {
		t.Fatalf("RunMeta section missing (ok=%v, err=%v)", ok, err)
	}
	if meta, err := DecodeRunMeta(data); err != nil || meta.Added != int64(len(vals)) || meta.SpillRuns == 0 {
		t.Errorf("RunMeta = %+v (err %v), want %d added over spill runs", meta, err, len(vals))
	}
	if _, ok, err := sp.Section("a.val", valfile.SketchSection); ok || err != nil {
		t.Errorf("absent section: ok=%v err=%v", ok, err)
	}

	if _, err := sp.Create("c.val"); !errors.Is(err, store.ErrReadOnly) {
		t.Errorf("Create = %v, want ErrReadOnly", err)
	}
	s := New(Config{TempDir: dir})
	w, _, _, err := sp.Stage("c.val", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("z"); !errors.Is(err, store.ErrReadOnly) {
		t.Errorf("Append to a staged key = %v, want ErrReadOnly", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Remove("b.val"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Open("b.val", nil); err == nil {
		t.Error("removed key still opens")
	}
	if err := sp.Remove("b.val"); err == nil {
		t.Error("removing an absent key must fail")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoRuns(t, dir)
}
