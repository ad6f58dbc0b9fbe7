package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkSortDistinct: SortDistinct gives slices.Sort followed by
// slices.Compact, and leaves "" in every element past its result.
func checkSortDistinct(t *testing.T, vals []string) {
	t.Helper()
	want := slices.Clone(vals)
	slices.Sort(want)
	want = slices.Compact(want)
	got := SortDistinct(vals)
	if !slices.Equal(got, want) {
		if len(got) < 50 && len(want) < 50 {
			t.Fatalf("SortDistinct = %q, want %q", got, want)
		}
		t.Fatalf("SortDistinct gave %d values, want %d", len(got), len(want))
	}
	for i, s := range vals[len(got):] {
		if s != "" {
			t.Fatalf("element %d past the result is %q, want \"\"", len(got)+i, s)
		}
	}
}

// TestSortDistinct covers the kernel's branches: the insertion sort on
// either side of its cutoff, the radix levels, the all-equal and
// shared-prefix shortcuts, and the comparison sort past maxLevels.
func TestSortDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStrings := func(n, maxLen int, alphabet string) []string {
		out := make([]string, n)
		for i := range out {
			b := make([]byte, rng.Intn(maxLen+1))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			out[i] = string(b)
		}
		return out
	}
	deep := randStrings(10_000, 6, "ab\x00\xff")
	prefix := strings.Repeat("p", 4096)
	for i := range deep {
		deep[i] = prefix + deep[i]
	}
	var chain []string
	for n := 1; n <= 2000; n++ {
		chain = append(chain, strings.Repeat("a", n))
	}
	rng.Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
	cases := map[string][]string{
		"nil":             nil,
		"one":             {"x"},
		"empty strings":   {"", "", "a", "", "\x00", ""},
		"all equal":       slices.Repeat([]string{"same"}, 1000),
		"all empty":       slices.Repeat([]string{""}, 100),
		"below cutoff":    randStrings(insertionCutoff-1, 3, "ab"),
		"at cutoff":       randStrings(insertionCutoff, 3, "ab"),
		"above cutoff":    randStrings(insertionCutoff+1, 3, "ab"),
		"bytes":           randStrings(5000, 4, "\x00\x01\x7f\x80\xfe\xff"),
		"wide":            randStrings(20_000, 12, "0123456789abcdefghijklmnopqrstuvwxyz"),
		"deep prefix":     deep,
		"prefix chain":    chain,
		"chain and equal": append(slices.Clone(chain), slices.Repeat([]string{"aaa", strings.Repeat("a", 500)}, 50)...),
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { checkSortDistinct(t, vals) })
	}
}

// TestSortDistinctAllocs: the kernel sorts in place.
func TestSortDistinctAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]string, 100_000)
	for i := range src {
		src[i] = fmt.Sprintf("P%05d-%d", rng.Intn(60_000), rng.Intn(3))
	}
	vals := make([]string, len(src))
	if n := testing.AllocsPerRun(5, func() {
		copy(vals, src)
		SortDistinct(vals)
	}); n != 0 {
		t.Errorf("SortDistinct made %v allocations per run, want 0", n)
	}
}

// FuzzSortDistinct: for any list of byte strings SortDistinct equals
// slices.Sort followed by slices.Compact. data is read as strings each
// led by a length byte; a length byte with the top bit set puts prefix
// in front of its string, so that many strings share a long prefix.
func FuzzSortDistinct(f *testing.F) {
	lead := func(strs ...string) []byte {
		var b []byte
		for _, s := range strs {
			b = append(append(b, byte(len(s))|0x80), s...)
		}
		return b
	}
	f.Add([]byte{0, 0, 1, 0x00, 1, 0xff, 2, 0xff, 0x00, 0}, []byte{})
	f.Add(lead("", "a", "ab", "abc", "ab", "a", ""), []byte("shared-prefix-"))
	f.Add(lead("x", "xy", "xyz"), bytes.Repeat([]byte{0xff}, 300))
	f.Add(bytes.Repeat([]byte{3, 'a', 'b', 'c'}, 200), []byte{})
	for _, n := range []int{insertionCutoff - 1, insertionCutoff, insertionCutoff + 1} {
		var strs []string
		for i := 0; i < n; i++ {
			strs = append(strs, string([]byte{byte(i % 7), byte(i % 3)}))
		}
		f.Add(lead(strs...), []byte("p\x00"))
	}
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		var vals []string
		for i := 0; i < len(data); {
			n, p := int(data[i]&0x7f), data[i]&0x80 != 0
			i++
			s := data[i:min(i+n, len(data))]
			i += len(s)
			if p {
				s = append(slices.Clip(prefix), s...)
			}
			vals = append(vals, string(s))
		}
		checkSortDistinct(t, vals)
	})
}
