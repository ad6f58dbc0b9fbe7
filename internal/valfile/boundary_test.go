package valfile_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"spider/internal/blockfile"
	"spider/internal/store"
	"spider/internal/valfile"
)

// This file pins the cursor contract at its edges — block and record
// boundaries, empty files, single-value files: a file cursor delivers
// exactly the values written, in order, and counts each one.

// writeFixture writes sorted values with TargetBlockSize 1 — one value
// per block — so every record boundary is also a block boundary.
func writeFixture(t *testing.T, dir string, values []string) string {
	t.Helper()
	path := filepath.Join(dir, "fixture-block.val")
	w, err := blockfile.Create(path, blockfile.Options{TargetBlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCursorBoundaries reads empty, single-value and multi-block files
// front to back: the delivered stream equals the written one, and the
// counter's item and byte tallies agree.
func TestCursorBoundaries(t *testing.T) {
	var gapped []string
	for i := 0; i < 30; i++ {
		gapped = append(gapped, fmt.Sprintf("key%04d", i*2))
	}
	fixtures := [][]string{
		nil,
		{"m"},
		{"", "a", "ab", "abc", "b", "ba", "c", "ca", "cb", "d"},
		gapped,
	}
	t.Run("block", func(t *testing.T) {
		for _, values := range fixtures {
			path := writeFixture(t, t.TempDir(), values)
			var counter valfile.ReadCounter
			r, err := store.OpenFile(path, &counter)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for {
				v, ok := r.Next()
				if !ok {
					break
				}
				got = append(got, v)
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(values) {
				t.Errorf("read %q, want %q", got, values)
			}
			n := int64(len(values))
			if counter.Total() != n {
				t.Errorf("%d values: counter %d", n, counter.Total())
			}
			if n > 0 && counter.TotalBytes() <= 0 {
				t.Errorf("%d values: TotalBytes = %d, want > 0 after Close", n, counter.TotalBytes())
			}
		}
	})
}
