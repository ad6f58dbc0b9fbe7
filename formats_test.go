package spider

import (
	"fmt"
	"reflect"
	"testing"
)

// This file is the cross-format acceptance property: every discovery
// mode must return the identical IND set whichever value-file encoding
// carries the sorted streams. The encodings differ in bytes on disk,
// never in values delivered.

// adversarialDatabase exercises the encodings' edge cases: values
// containing newlines (the text escape path), NUL bytes (the tuple
// separator escape), values starting with the block magic bytes, empty
// strings, and long shared prefixes (the front-coding path).
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

func TestExactINDsIdenticalAcrossFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			want, err := FindINDs(mk(), Options{Algorithm: InMemory})
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []Format{FormatText, FormatBlock} {
				for _, backend := range []*Store{nil, NewSpillStore()} {
					for _, shards := range []int{1, 4} {
						opts := Options{
							Algorithm: SpiderMerge, Format: format,
							Store: backend, Shards: shards,
						}
						label := fmt.Sprintf("%v/backend=%v/shards=%d", format, backend, shards)
						got, err := FindINDs(mk(), opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(got.INDs, want.INDs) {
							t.Errorf("%s: INDs = %v, want %v", label, got.INDs, want.INDs)
						}
						if format == FormatBlock && backend == nil && got.Stats.BytesRead == 0 && len(got.INDs) > 0 {
							t.Errorf("%s: BytesRead = 0 with results delivered", label)
						}
					}
				}
			}
		})
	}
}

func TestPartialINDsIdenticalAcrossFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			for _, sigma := range []float64{0.5, 1.0} {
				ref, _, err := FindPartialINDs(mk(), PartialOptions{Threshold: sigma})
				if err != nil {
					t.Fatal(err)
				}
				for _, format := range []Format{FormatText, FormatBlock} {
					for _, backend := range []*Store{nil, NewSpillStore()} {
						for _, shards := range []int{1, 4} {
							opts := PartialOptions{
								Threshold: sigma, Algorithm: SpiderMerge, Format: format,
								Store: backend, Shards: shards,
							}
							label := fmt.Sprintf("σ=%v/%v/backend=%v/shards=%d", sigma, format, backend, shards)
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
			}
		})
	}
}

func TestNaryINDsIdenticalAcrossFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for name, mk := range formatDatabases(t) {
		t.Run(name, func(t *testing.T) {
			ref, _, err := FindNaryINDs(mk(), NaryOptions{MaxArity: 3, Algorithm: InMemory})
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []Format{FormatText, FormatBlock} {
				for _, backend := range []*Store{nil, NewSpillStore()} {
					for _, shards := range []int{1, 4} {
						opts := NaryOptions{
							MaxArity: 3, Algorithm: SpiderMerge, Format: format,
							Store: backend, Shards: shards,
						}
						label := fmt.Sprintf("%v/backend=%v/shards=%d", format, backend, shards)
						got, st, err := FindNaryINDs(mk(), opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s: n-ary INDs = %v, want %v", label, got, ref)
						}
						if len(st.BytesReadByArity) != len(st.ItemsReadByArity) {
							t.Errorf("%s: BytesReadByArity has %d entries, ItemsReadByArity %d",
								label, len(st.BytesReadByArity), len(st.ItemsReadByArity))
						}
					}
				}
			}
		})
	}
}

func TestEmbeddedINDsIdenticalAcrossFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	mk := func() *Database { return GenerateUniProt(DatasetConfig{Scale: 0.05}) }
	ref, _, err := FindEmbeddedINDs(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatText, FormatBlock} {
		for _, algo := range []Algorithm{BruteForce, SpiderMerge} {
			got, _, err := FindEmbeddedINDsWith(mk(), EmbeddedOptions{Algorithm: algo, Format: format})
			if err != nil {
				t.Fatalf("%v/%v: %v", format, algo, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%v/%v: embedded INDs = %v, want %v", format, algo, got, ref)
			}
		}
	}
}

// TestNaryBlockBytesBelowText is the I/O acceptance criterion: on the
// UniProt bench fixture the front-coded block encoding must move fewer
// bytes through the n-ary encoded-tuple levels (arity ≥ 2) than the
// text encoding for the identical delivered tuple stream.
func TestNaryBlockBytesBelowText(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	mk := func() *Database { return GenerateUniProt(DatasetConfig{Seed: 42, Scale: 0.15}) }
	tupleBytes := func(format Format) int64 {
		t.Helper()
		_, st, err := FindNaryINDs(mk(), NaryOptions{
			MaxArity: 3, Algorithm: SpiderMerge, Format: format, SequentialLevels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for arity := 2; arity < len(st.BytesReadByArity); arity++ {
			sum += st.BytesReadByArity[arity]
		}
		if sum == 0 {
			t.Fatalf("%v: no tuple-level bytes recorded (BytesReadByArity = %v)", format, st.BytesReadByArity)
		}
		return sum
	}
	text := tupleBytes(FormatText)
	block := tupleBytes(FormatBlock)
	if block >= text {
		t.Errorf("block tuple-level I/O %d bytes ≥ text %d bytes; front coding should shrink the encoded-tuple streams", block, text)
	}
	t.Logf("n-ary tuple-level bytes: text %d, block %d (%.1f%%)", text, block, 100*float64(block)/float64(text))
}
