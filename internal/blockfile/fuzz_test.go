package blockfile

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzBlockFile drives the format three ways from one input:
//
//  1. roundtrip — values derived from the input must re-read exactly;
//  2. mutation — a bit flip in the encoded file must produce an error
//     or a byte-identical prefix of the original values, never a
//     silently different stream;
//  3. hostile decode — the raw input itself opened as a block file
//     must never panic, and anything it does return must be strictly
//     increasing.
//
// Together these are the invariants the rest of the pipeline assumes:
// what the writer stores is what readers see, and damage is loud.
func FuzzBlockFile(f *testing.F) {
	f.Add([]byte("alpha\x00beta\x00gamma"), uint16(64), uint32(20), byte(0x01))
	f.Add([]byte{}, uint16(0), uint32(0), byte(0xFF))
	f.Add([]byte("\nSPB garbage that starts with the magic"), uint16(1), uint32(5), byte(0x80))
	f.Add(bytes.Repeat([]byte{0xAA}, 300), uint16(8), uint32(100), byte(0x40))

	f.Fuzz(func(t *testing.T, data []byte, target uint16, mutPos uint32, mutXor byte) {
		dir := t.TempDir()

		// (1) Roundtrip: derive sorted distinct values from the input.
		vals := deriveValues(data)
		path := filepath.Join(dir, "rt.val")
		w, err := Create(path, Options{TargetBlockSize: int(target%512) + 1})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for _, v := range vals {
			if err := w.Append(v); err != nil {
				t.Fatalf("Append(%q): %v", v, err)
			}
		}
		if len(data) > 0 {
			if err := w.SetSection("FUZZ", data); err != nil {
				t.Fatalf("SetSection: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, rerr := scan(path)
		if rerr != nil {
			t.Fatalf("re-read of just-written file: %v", rerr)
		}
		if len(got) != len(vals) {
			t.Fatalf("roundtrip: %d values out, %d in", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("roundtrip: value %d = %q, want %q", i, got[i], vals[i])
			}
		}

		// (2) Mutation: flip one byte, demand loud failure or an exact
		// prefix (a flip inside an unread region, e.g. the section
		// payload, legitimately goes unnoticed by a value scan).
		enc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > 0 && mutXor != 0 {
			mut := bytes.Clone(enc)
			mut[int(mutPos)%len(mut)] ^= mutXor
			mpath := filepath.Join(dir, "mut.val")
			if err := os.WriteFile(mpath, mut, 0o666); err != nil {
				t.Fatal(err)
			}
			mgot, _ := scan(mpath) // error is acceptable; misreading is not
			if len(mgot) > len(vals) {
				t.Fatalf("mutated file yielded %d values, original had %d", len(mgot), len(vals))
			}
			for i := range mgot {
				if mgot[i] != vals[i] {
					t.Fatalf("mutated file silently misread value %d: %q != %q", i, mgot[i], vals[i])
				}
			}
		}

		// (3) Hostile decode: the raw input as a file.
		hpath := filepath.Join(dir, "hostile.val")
		if err := os.WriteFile(hpath, data, 0o666); err != nil {
			t.Fatal(err)
		}
		hvals, _ := scan(hpath)
		for i := 1; i < len(hvals); i++ {
			if hvals[i] <= hvals[i-1] {
				t.Fatalf("hostile input decoded to non-increasing values %q, %q", hvals[i-1], hvals[i])
			}
		}
	})
}

// deriveValues turns fuzz bytes into a sorted, distinct value list
// (NUL-separated chunks, so the fuzzer controls lengths and content).
func deriveValues(data []byte) []string {
	parts := bytes.Split(data, []byte{0})
	seen := make(map[string]bool, len(parts))
	var vals []string
	for _, p := range parts {
		s := string(p)
		if !seen[s] {
			seen[s] = true
			vals = append(vals, s)
		}
	}
	sort.Strings(vals)
	return vals
}

// scan opens path as a block file and reads every value, exercising
// sections and metadata accessors along the way.
func scan(path string) ([]string, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for _, tag := range r.Sections() {
		if _, _, err := r.Section(tag); err != nil {
			return nil, err
		}
	}
	_ = r.Count()
	_ = r.First()
	_ = r.Max()
	var out []string
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if err := r.Err(); err != nil {
		return out, err
	}
	return out, nil
}
