// Package sketch provides per-attribute data summaries for approximate
// IND candidate pre-filtering: a k-minimum-values (KMV) min-hash
// signature plus a partitioned bloom filter, both computed in one
// streaming pass over the attribute's values and small enough to keep in
// memory for every attribute of a PDB-scale schema.
//
// Both structures live in the same 64-bit hash space (Hash), which is
// what makes the combination powerful: the KMV minima of a dependent
// attribute are the hashes of k actual dependent values — a uniform
// random sample of its distinct set — and each of them can be probed
// directly against the referenced attribute's bloom filter, which covers
// ALL referenced values. A bloom filter has no false negatives, so a
// probe that misses proves the sampled dependent value absent from the
// referenced attribute: a definite refutation of the exact IND dep ⊆
// ref, sound up to 64-bit hash collisions (a colliding pair can only
// turn a miss into a hit, i.e. suppress a prune, never cause one). The
// hit fraction over all probes simultaneously estimates the containment
// |s(dep) ∩ s(ref)| / |s(dep)|, the Dasu et al. (SIGMOD 2002)
// resemblance idea the paper's Sec 6 cites, with only bloom
// false-positive error — no KMV-vs-KMV truncation error.
//
// Sketches serialise to a compact binary format (Encode/Decode,
// WriteFile/ReadFile) so they persist inside the sorted value files (as
// their SKCH section) and survive across runs. The value hash is an
// unseeded FNV-1a, stable across processes, so persisted sketches
// remain probeable forever.
package sketch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"os"
	"sort"
)

// Hash maps a canonical value into the shared 64-bit hash space. It is
// deliberately unseeded (FNV-1a finalized by splitmix64) so sketches
// built in different processes — or loaded from disk years later — stay
// comparable. The splitmix64 finalizer matters: KMV selects values by
// hash ORDER, and raw FNV-1a ordering is visibly non-uniform on
// structured keys (shared prefixes, embedded counters), which would bias
// the sample; the finalizer's avalanche restores uniformity.
func Hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return splitmix64(h.Sum64())
}

// Config sizes a sketch. The zero value selects the defaults.
type Config struct {
	// K is the number of retained minima (default DefaultK). Larger k
	// means more probes per candidate — sharper refutation and a tighter
	// containment estimate — at k·8 bytes per attribute.
	K int
	// BloomBitsPerValue sizes the bloom filter relative to the
	// attribute's distinct count (default DefaultBloomBitsPerValue).
	BloomBitsPerValue int
	// BloomPartitions is the number of bloom partitions, one probe per
	// partition (default DefaultBloomPartitions).
	BloomPartitions int
}

// DefaultK is the KMV signature size when Config.K is 0. 128 probes
// refute a candidate with true containment c with probability
// ≈ 1-c^128 — above 99.8% already at c = 0.95.
const DefaultK = 128

// DefaultBloomBitsPerValue is the bloom budget when unset: 10 bits per
// distinct value at 4 partitions gives ≈1% false positives.
const DefaultBloomBitsPerValue = 10

// DefaultBloomPartitions is the partition count when unset.
const DefaultBloomPartitions = 4

func (c Config) normalize() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.BloomBitsPerValue <= 0 {
		c.BloomBitsPerValue = DefaultBloomBitsPerValue
	}
	if c.BloomPartitions <= 0 {
		c.BloomPartitions = DefaultBloomPartitions
	}
	return c
}

// Sketch summarises one attribute's distinct value set.
type Sketch struct {
	k      int
	n      int64
	minima []uint64 // sorted ascending, distinct
	bloom  bloom
}

// splitmix64 decorrelates the bloom probe sequence from the raw value
// hash that orders the KMV minima.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloom is a partitioned bloom filter: the bit array is split into p
// equal partitions and each element sets exactly one bit per partition
// (Kirsch–Mitzenmacher double hashing from the 64-bit value hash).
type bloom struct {
	partitions   int
	partitionLen uint64 // bits per partition
	bits         []uint64
}

func newBloom(distinct, bitsPerValue, partitions int) bloom {
	if distinct < 1 {
		distinct = 1
	}
	perPartition := (uint64(distinct)*uint64(bitsPerValue) + uint64(partitions) - 1) / uint64(partitions)
	if perPartition < 64 {
		perPartition = 64
	}
	words := (uint64(partitions)*perPartition + 63) / 64
	return bloom{
		partitions:   partitions,
		partitionLen: perPartition,
		bits:         make([]uint64, words),
	}
}

// probe returns the bit index of element g in partition i.
func (b *bloom) probe(g uint64, i int) uint64 {
	h1 := g
	h2 := (g >> 17) | 1 // odd, so successive probes walk the partition
	idx := (h1 + uint64(i)*h2) % b.partitionLen
	return uint64(i)*b.partitionLen + idx
}

func (b *bloom) addHash(h uint64) {
	g := splitmix64(h)
	for i := 0; i < b.partitions; i++ {
		bit := b.probe(g, i)
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloom) mayContainHash(h uint64) bool {
	g := splitmix64(h)
	for i := 0; i < b.partitions; i++ {
		bit := b.probe(g, i)
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// fillRatio reports the fraction of set bits, a health metric for tests
// and diagnostics.
func (b *bloom) fillRatio() float64 {
	if len(b.bits) == 0 {
		return 0
	}
	set := 0
	for _, w := range b.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(uint64(b.partitions)*b.partitionLen)
}

// Builder accumulates one attribute's values into a sketch in a single
// streaming pass. Duplicate values are tolerated (the bloom filter is
// idempotent; the KMV keeps distinct minima), so the builder can be fed
// either the raw column scan or the sorted distinct stream. Not safe for
// concurrent use.
type Builder struct {
	cfg Config
	b   bloom
	// KMV state: a max-heap of the current k smallest distinct hashes,
	// with a membership set for duplicate suppression.
	heap    []uint64
	members map[uint64]struct{}
	n       int64
}

// NewBuilder returns a builder sized for expectedDistinct values (the
// attribute's known distinct count; it bounds the bloom filter and is
// recorded as the sketch's Distinct).
func NewBuilder(cfg Config, expectedDistinct int) *Builder {
	cfg = cfg.normalize()
	return &Builder{
		cfg:     cfg,
		b:       newBloom(expectedDistinct, cfg.BloomBitsPerValue, cfg.BloomPartitions),
		members: make(map[uint64]struct{}, cfg.K),
		n:       int64(expectedDistinct),
	}
}

// Add folds one value into the sketch.
func (b *Builder) Add(v string) { b.AddHash(Hash(v)) }

// AddHash folds an already hashed value into the sketch.
func (b *Builder) AddHash(h uint64) {
	b.b.addHash(h)
	if len(b.heap) == b.cfg.K && h >= b.heap[0] {
		return // not among the k smallest (or a duplicate of the max)
	}
	if _, dup := b.members[h]; dup {
		return
	}
	if len(b.heap) < b.cfg.K {
		b.members[h] = struct{}{}
		b.heap = append(b.heap, h)
		b.siftUp(len(b.heap) - 1)
		return
	}
	delete(b.members, b.heap[0])
	b.members[h] = struct{}{}
	b.heap[0] = h
	b.siftDown(0)
}

func (b *Builder) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.heap[parent] >= b.heap[i] {
			return
		}
		b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
		i = parent
	}
}

func (b *Builder) siftDown(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && b.heap[l] > b.heap[largest] {
			largest = l
		}
		if r < n && b.heap[r] > b.heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		b.heap[i], b.heap[largest] = b.heap[largest], b.heap[i]
		i = largest
	}
}

// Finish seals the builder into an immutable Sketch. The builder must
// not be used afterwards.
func (b *Builder) Finish() *Sketch {
	minima := b.heap
	sort.Slice(minima, func(i, j int) bool { return minima[i] < minima[j] })
	s := &Sketch{k: b.cfg.K, n: b.n, minima: minima, bloom: b.b}
	b.heap, b.members = nil, nil
	return s
}

// K returns the configured signature size.
func (s *Sketch) K() int { return s.k }

// Distinct returns the distinct count the sketch was built for.
func (s *Sketch) Distinct() int64 { return s.n }

// Minima returns the retained minima (sorted ascending). The slice is
// owned by the sketch and must not be mutated.
func (s *Sketch) Minima() []uint64 { return s.minima }

// MayContain reports whether the hashed value may occur in the
// attribute. False is definite (no bloom false negatives): the value is
// certainly absent.
func (s *Sketch) MayContain(h uint64) bool { return s.bloom.mayContainHash(h) }

// MayContainValue probes one canonical value against the bloom filter —
// the serving-path entry point: a persisted sketch loaded years after it
// was built answers point membership questions without touching the
// value set. False is definite; true still needs a value-set check (bloom
// false positives).
func (s *Sketch) MayContainValue(v string) bool { return s.MayContain(Hash(v)) }

// Bytes returns the in-memory footprint of the sketch, the accounting
// behind the SketchBytes stat.
func (s *Sketch) Bytes() int64 {
	return int64(len(s.minima))*8 + int64(len(s.bloom.bits))*8
}

// FillRatio reports the bloom filter's set-bit fraction.
func (s *Sketch) FillRatio() float64 { return s.bloom.fillRatio() }

// ProbeResult is the outcome of probing a dependent sketch's minima
// against a referenced sketch's bloom filter.
type ProbeResult struct {
	// Probed is the number of dependent minima probed (= the sample
	// size); Hits of them may occur in the referenced attribute.
	Probed, Hits int
}

// DefiniteMisses returns the number of sampled dependent values proven
// absent from the referenced attribute. Any positive count refutes the
// exact IND dep ⊆ ref.
func (p ProbeResult) DefiniteMisses() int { return p.Probed - p.Hits }

// Containment estimates |s(dep) ∩ s(ref)| / |s(dep)| as the probe hit
// fraction. With no probes (empty dependent set) it returns 1: an empty
// set is contained everywhere, and pruning must not fire.
func (p ProbeResult) Containment() float64 {
	if p.Probed == 0 {
		return 1
	}
	return float64(p.Hits) / float64(p.Probed)
}

// Probe tests every KMV minimum of dep — each the hash of an actual
// dependent value — against ref's bloom filter. Bloom false positives
// can only inflate Hits (suppressing a prune), never produce a definite
// miss, so DefiniteMisses is sound evidence against the exact IND.
func Probe(dep, ref *Sketch) ProbeResult {
	res := ProbeResult{Probed: len(dep.minima)}
	for _, h := range dep.minima {
		if ref.bloom.mayContainHash(h) {
			res.Hits++
		}
	}
	return res
}

// ---------------------------------------------------------- persistence

// magic marks the binary format: header, minima, bloom words. magicV2
// files, written by earlier builds, append a value sample after the bloom
// words; Decode validates and drops it so persisted result sets keep
// loading.
var (
	magic   = [4]byte{'s', 'k', 'e', '1'}
	magicV2 = [4]byte{'s', 'k', 'e', '2'}
)

// Encode writes the sketch in the stable binary format.
func (s *Sketch) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var u64 [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	header := []uint64{
		uint64(s.k),
		uint64(s.n),
		uint64(len(s.minima)),
		uint64(s.bloom.partitions),
		s.bloom.partitionLen,
		uint64(len(s.bloom.bits)),
	}
	for _, v := range header {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	for _, v := range s.minima {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	for _, v := range s.bloom.bits {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxDecodeLen bounds decoded array lengths so a corrupted header cannot
// drive an enormous allocation.
const maxDecodeLen = 1 << 28

// Decode reads a sketch written by Encode.
func Decode(r io.Reader) (*Sketch, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	if m != magic && m != magicV2 {
		return nil, fmt.Errorf("sketch: bad magic %q", m[:])
	}
	var u64 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	var header [6]uint64
	for i := range header {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("sketch: header: %w", err)
		}
		header[i] = v
	}
	nMinima, nBits := header[2], header[5]
	if nMinima > maxDecodeLen || nBits > maxDecodeLen {
		return nil, fmt.Errorf("sketch: corrupt header (lengths %d, %d)", nMinima, nBits)
	}
	// The bloom geometry must agree with the bit-array length exactly as
	// newBloom lays it out, or probing would index out of range on a
	// corrupt file instead of failing here.
	partitions, partitionLen := header[3], header[4]
	if partitions > maxDecodeLen || partitionLen > maxDecodeLen ||
		(partitions*partitionLen+63)/64 != nBits {
		return nil, fmt.Errorf("sketch: corrupt bloom geometry (%d partitions x %d bits, %d words)",
			partitions, partitionLen, nBits)
	}
	s := &Sketch{
		k:      int(header[0]),
		n:      int64(header[1]),
		minima: make([]uint64, nMinima),
		bloom: bloom{
			partitions:   int(header[3]),
			partitionLen: header[4],
			bits:         make([]uint64, nBits),
		},
	}
	for i := range s.minima {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("sketch: minima: %w", err)
		}
		s.minima[i] = v
	}
	for i := range s.bloom.bits {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("sketch: bloom: %w", err)
		}
		s.bloom.bits[i] = v
	}
	if m == magicV2 {
		if err := skipSample(br, readU64, nMinima); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// skipSample validates and discards a v2 file's value sample: a count of
// at most nMinima length-prefixed strings.
func skipSample(br *bufio.Reader, readU64 func() (uint64, error), nMinima uint64) error {
	nSample, err := readU64()
	if err != nil {
		return fmt.Errorf("sketch: sample: %w", err)
	}
	if nSample > nMinima {
		return fmt.Errorf("sketch: corrupt sample length %d (only %d minima)", nSample, nMinima)
	}
	for i := uint64(0); i < nSample; i++ {
		vlen, err := readU64()
		if err != nil {
			return fmt.Errorf("sketch: sample: %w", err)
		}
		if vlen > maxDecodeLen {
			return fmt.Errorf("sketch: corrupt sample value length %d", vlen)
		}
		if _, err := br.Discard(int(vlen)); err != nil {
			return fmt.Errorf("sketch: sample: %w", err)
		}
	}
	return nil
}

// WriteFile persists the sketch's encoding as the file at path.
func (s *Sketch) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sketch: %w", err)
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("sketch: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sketch: %s: %w", path, err)
	}
	return nil
}

// ReadFile loads a sketch persisted by WriteFile.
func ReadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("sketch: %s: %w", path, err)
	}
	return s, nil
}
