package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// buildFrom folds vals into a fresh sketch.
func buildFrom(cfg Config, vals []string, distinct int) *Sketch {
	b := NewBuilder(cfg, distinct)
	for _, v := range vals {
		b.Add(v)
	}
	return b.Finish()
}

// distinctCount returns the number of distinct strings in vals.
func distinctCount(vals []string) int {
	set := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return len(set)
}

// TestBuilderKeepsKSmallestDistinct checks the KMV invariant directly:
// the retained minima are exactly the k smallest distinct hashes,
// regardless of duplicates and insertion order.
func TestBuilderKeepsKSmallestDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		vals := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			v := fmt.Sprintf("v%d", rng.Intn(150))
			vals = append(vals, v)
			if rng.Intn(3) == 0 {
				vals = append(vals, v) // adjacent duplicate
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		k := 1 + rng.Intn(20)
		s := buildFrom(Config{K: k}, vals, distinctCount(vals))

		hashes := make(map[uint64]struct{})
		for _, v := range vals {
			hashes[Hash(v)] = struct{}{}
		}
		want := make([]uint64, 0, len(hashes))
		for h := range hashes {
			want = append(want, h)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) > k {
			want = want[:k]
		}
		if len(want) == 0 {
			want = nil
		}
		got := s.Minima()
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d, %d distinct): minima = %v, want %v",
				trial, k, len(hashes), got, want)
		}
	}
}

// TestBloomNoFalseNegatives is the soundness property everything rests
// on: a value added to the sketch is never reported absent.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("value-%d-%d", trial, rng.Int63())
		}
		// Deliberately undersized blooms still must not false-negative.
		cfg := Config{K: 8, BloomBitsPerValue: 1 + rng.Intn(12), BloomPartitions: 1 + rng.Intn(6)}
		s := buildFrom(cfg, vals, n)
		for _, v := range vals {
			if !s.MayContain(Hash(v)) {
				t.Fatalf("trial %d: %q added but reported absent", trial, v)
			}
		}
	}
}

// TestBloomFalsePositiveRate sanity-checks the default sizing: ~1% false
// positives, well under the 10% that would blunt the pre-filter.
func TestBloomFalsePositiveRate(t *testing.T) {
	n := 20000
	b := NewBuilder(Config{}, n)
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("member-%d", i))
	}
	s := b.Finish()
	fp := 0
	probes := 20000
	for i := 0; i < probes; i++ {
		if s.MayContain(Hash(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / float64(probes); rate > 0.05 {
		t.Fatalf("false positive rate %.3f, want < 0.05 (fill %.2f)", rate, s.FillRatio())
	}
}

// TestProbeSoundness: when dep ⊆ ref actually holds, probing can never
// produce a definite miss, whatever the sketch sizes.
func TestProbeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		refN := 1 + rng.Intn(500)
		ref := make([]string, refN)
		for i := range ref {
			ref[i] = fmt.Sprintf("r%d", rng.Intn(1000))
		}
		dep := ref[:rng.Intn(refN+1)] // a subset: the IND holds
		cfg := Config{K: 1 + rng.Intn(64), BloomBitsPerValue: 1 + rng.Intn(10), BloomPartitions: 1 + rng.Intn(4)}
		ds := buildFrom(cfg, dep, distinctCount(dep))
		rs := buildFrom(cfg, ref, distinctCount(ref))
		res := Probe(ds, rs)
		if res.DefiniteMisses() != 0 {
			t.Fatalf("trial %d: %d definite misses on a satisfied inclusion", trial, res.DefiniteMisses())
		}
		if res.Containment() != 1 {
			t.Fatalf("trial %d: containment %v on a satisfied inclusion", trial, res.Containment())
		}
	}
}

// TestProbeRefutesDisjointSets: disjoint value sets should be refuted
// with near certainty at default sizes.
func TestProbeRefutesDisjointSets(t *testing.T) {
	depVals := make([]string, 500)
	refVals := make([]string, 500)
	for i := range depVals {
		depVals[i] = fmt.Sprintf("dep-%d", i)
		refVals[i] = fmt.Sprintf("ref-%d", i)
	}
	dep := buildFrom(Config{}, depVals, len(depVals))
	ref := buildFrom(Config{}, refVals, len(refVals))
	res := Probe(dep, ref)
	if res.DefiniteMisses() == 0 {
		t.Fatalf("disjoint sets produced no definite miss (hits %d / probed %d)", res.Hits, res.Probed)
	}
	if c := res.Containment(); c > 0.2 {
		t.Fatalf("disjoint sets estimated containment %.2f, want ≈ 0", c)
	}
}

// TestContainmentEstimate checks the estimate tracks the true
// containment within a loose tolerance.
func TestContainmentEstimate(t *testing.T) {
	for _, truth := range []float64{0.25, 0.5, 0.75, 0.9} {
		n := 4000
		depVals := make([]string, n)
		for i := range depVals {
			if float64(i) < truth*float64(n) {
				depVals[i] = fmt.Sprintf("shared-%d", i)
			} else {
				depVals[i] = fmt.Sprintf("dep-only-%d", i)
			}
		}
		refVals := make([]string, n)
		for i := range refVals {
			refVals[i] = fmt.Sprintf("shared-%d", i)
		}
		dep := buildFrom(Config{K: 256}, depVals, n)
		ref := buildFrom(Config{}, refVals, n)
		got := Probe(dep, ref).Containment()
		if got < truth-0.15 || got > truth+0.15 {
			t.Errorf("true containment %.2f: estimated %.2f", truth, got)
		}
	}
}

// TestEmptyDependent: an empty sketch probes nothing and must never
// prune (∅ ⊆ anything).
func TestEmptyDependent(t *testing.T) {
	dep := buildFrom(Config{}, nil, 0)
	ref := buildFrom(Config{}, []string{"a", "b"}, 2)
	res := Probe(dep, ref)
	if res.DefiniteMisses() != 0 || res.Containment() != 1 {
		t.Fatalf("empty dependent: misses %d, containment %v", res.DefiniteMisses(), res.Containment())
	}
}

// TestEncodeDecodeRoundTrip: persisted sketches behave identically.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(300)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", rng.Intn(200))
		}
		cfg := Config{K: 1 + rng.Intn(32)}
		s := buildFrom(cfg, vals, distinctCount(vals))

		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

// TestReadFileWriteFile exercises the on-disk persistence path.
func TestReadFileWriteFile(t *testing.T) {
	s := buildFrom(Config{K: 16}, []string{"x", "y", "z"}, 3)
	path := filepath.Join(t.TempDir(), "a.sketch")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestDecodeCorrupt rejects corrupted headers instead of allocating.
func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	s := buildFrom(Config{}, []string{"a"}, 1)
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Blow up the minima length field (third header word).
	corrupt := append([]byte(nil), raw...)
	for i := 4 + 16; i < 4+24; i++ {
		corrupt[i] = 0xff
	}
	if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt length accepted")
	}
	// Inflate partitionLen (fifth header word) so the geometry no longer
	// matches the bit array: probing such a sketch would index out of
	// range, so Decode must reject it.
	corrupt = append([]byte(nil), raw...)
	corrupt[4+32] = 0xff
	corrupt[4+33] = 0xff
	s2, err := Decode(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatalf("corrupt bloom geometry accepted: %+v", s2)
	}
}

// TestDecodeV1Compat pins the v1 layout that Encode writes — magic
// "ske1", six header words, the minima, the bloom words — against a
// hand-assembled payload, so files written before and after the v2
// sample section existed decode into the same sketch.
func TestDecodeV1Compat(t *testing.T) {
	s := buildFrom(Config{K: 4}, []string{"a", "b", "c", "d", "e"}, 5)
	v1 := []byte("ske1")
	for _, w := range []uint64{uint64(s.k), uint64(s.n), uint64(len(s.minima)),
		uint64(s.bloom.partitions), s.bloom.partitionLen, uint64(len(s.bloom.bits))} {
		v1 = binary.LittleEndian.AppendUint64(v1, w)
	}
	for _, w := range s.minima {
		v1 = binary.LittleEndian.AppendUint64(v1, w)
	}
	for _, w := range s.bloom.bits {
		v1 = binary.LittleEndian.AppendUint64(v1, w)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v1) {
		t.Fatalf("Encode wrote %d bytes that differ from the %d-byte v1 layout", buf.Len(), len(v1))
	}
	got, err := Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("v1 decoded to %+v, want %+v", got, s)
	}
}

// TestDecodeV2Compat: sketches persisted by builds that appended a KMV
// value sample (magic "ske2") still decode, into exactly the sketch their
// v1 twin holds; a corrupt sample section is rejected, not skipped over.
func TestDecodeV2Compat(t *testing.T) {
	s := buildFrom(Config{K: 4}, []string{"a", "b", "c", "d", "e"}, 5)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	v2 := func(sample ...string) []byte {
		out := append([]byte("ske2"), v1[4:]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(sample)))
		for _, v := range sample {
			out = binary.LittleEndian.AppendUint64(out, uint64(len(v)))
			out = append(out, v...)
		}
		return out
	}
	want, err := Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range [][]string{nil, {"a", "c", "e"}} {
		got, err := Decode(bytes.NewReader(v2(sample...)))
		if err != nil {
			t.Fatalf("v2 with sample %q: %v", sample, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v2 with sample %q decoded to %+v, want %+v", sample, got, want)
		}
	}

	tooMany := v2("a", "b", "c", "d", "e") // more sample values than minima
	if _, err := Decode(bytes.NewReader(tooMany)); err == nil {
		t.Error("v2 sample longer than the minima accepted")
	}
	huge := binary.LittleEndian.AppendUint64(append([]byte("ske2"), v1[4:]...), 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<40)
	if _, err := Decode(bytes.NewReader(huge)); err == nil {
		t.Error("v2 sample value length beyond the decode bound accepted")
	}
	truncated := v2("abc")
	if _, err := Decode(bytes.NewReader(truncated[:len(truncated)-1])); err == nil {
		t.Error("truncated v2 sample accepted")
	}
}

// TestBytes reports a sensible footprint.
func TestBytes(t *testing.T) {
	s := buildFrom(Config{K: 8, BloomBitsPerValue: 8}, []string{"a", "b", "c"}, 3)
	if s.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d", s.Bytes())
	}
}

func BenchmarkBuilderAdd(b *testing.B) {
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%d", i)
	}
	bld := NewBuilder(Config{}, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Add(vals[i%len(vals)])
	}
}

func BenchmarkProbe(b *testing.B) {
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%d", i)
	}
	dep := buildFrom(Config{}, vals[:2048], 2048)
	ref := buildFrom(Config{}, vals[1024:], 3072)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Probe(dep, ref)
	}
}

// TestMayContainValue pins the string-level bloom probe used by the
// serving daemon: every inserted value hits; absence of hits for far
// misses shows it is the same filter as the hash-level probe.
func TestMayContainValue(t *testing.T) {
	b := NewBuilder(Config{}, 100)
	for i := 0; i < 100; i++ {
		b.Add(fmt.Sprintf("v%03d", i))
	}
	s := b.Finish()
	for i := 0; i < 100; i++ {
		v := fmt.Sprintf("v%03d", i)
		if !s.MayContainValue(v) {
			t.Fatalf("inserted value %q reported absent", v)
		}
		if s.MayContainValue(v) != s.MayContain(Hash(v)) {
			t.Fatalf("MayContainValue(%q) disagrees with MayContain(Hash)", v)
		}
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		if !s.MayContainValue(fmt.Sprintf("absent-%04d", i)) {
			misses++
		}
	}
	if misses == 0 {
		t.Error("no definite misses across 1000 absent values — filter not discriminating")
	}
}
