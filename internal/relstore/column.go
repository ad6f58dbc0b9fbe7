package relstore

import (
	"iter"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"spider/internal/value"
)

// column holds one column's values in row order. An INTEGER column keeps
// them as an int64 vector and a null mask for as long as every value
// inserted into it is an INTEGER or NULL; the first value of another
// kind moves the column to the value vector every other column uses, so
// the table still returns each value exactly as it was inserted.
type column struct {
	boxed bool // the values are in vals, not in ints and nulls
	// ints holds an INTEGER column's values; row r is NULL when bit r
	// of nulls is set.
	ints  []int64
	nulls []uint64
	vals  []value.Value
}

// newColumn returns an empty column for values of the declared kind,
// with room for rows values.
func newColumn(kind value.Kind, rows int) column {
	if kind == value.Int {
		return column{ints: make([]int64, 0, rows), nulls: make([]uint64, 0, (rows+63)/64)}
	}
	return column{boxed: true, vals: make([]value.Value, 0, rows)}
}

func (c *column) isNull(r int) bool { return c.nulls[uint(r)/64]&(1<<(uint(r)%64)) != 0 }

// value returns the value in row r.
func (c *column) value(r int) value.Value {
	if c.boxed {
		return c.vals[r]
	}
	if c.isNull(r) {
		return value.NewNull()
	}
	return value.NewInt(c.ints[r])
}

// append adds v as the column's next row.
func (c *column) append(v value.Value) {
	if !c.boxed {
		switch k := v.Kind(); k {
		case value.Int, value.Null:
			r := len(c.ints)
			if r%64 == 0 {
				c.nulls = append(c.nulls, 0)
			}
			if k == value.Null {
				c.nulls[r/64] |= 1 << (r % 64)
				c.ints = append(c.ints, 0)
			} else {
				c.ints = append(c.ints, v.Int())
			}
			return
		}
		c.demote()
	}
	c.vals = append(c.vals, v)
}

// demote moves an INTEGER vector's values into a value vector.
func (c *column) demote() {
	vals := make([]value.Value, len(c.ints), cap(c.ints)+1)
	for r := range vals {
		vals[r] = c.value(r)
	}
	*c = column{boxed: true, vals: vals}
}

// canonical returns the canonical encodings of the column's non-null
// values in row order.
func (c *column) canonical() []string {
	if c.boxed {
		vals := make([]string, 0, len(c.vals))
		for _, v := range c.vals {
			if !v.IsNull() {
				vals = append(vals, v.Canonical())
			}
		}
		return vals
	}
	vals := make([]string, 0, len(c.ints))
	for r, v := range c.ints {
		if !c.isNull(r) {
			vals = append(vals, strconv.FormatInt(v, 10))
		}
	}
	return vals
}

// sortedSet returns the sorted distinct set of the column's canonical
// values and the number of non-null values. An INTEGER vector whose
// values intKey can order goes to intSet, which formats only the
// distinct values; any other column is formatted value by value and
// its strings go to SortDistinct.
func (c *column) sortedSet() ([]string, int) {
	if !c.boxed {
		if set, nonNull, ok := c.intSet(); ok {
			return set, nonNull
		}
	}
	vals := c.canonical()
	return SortDistinct(vals), len(vals)
}

// intSet returns the sorted distinct set of an INTEGER vector and its
// number of non-null values. ok is false when a value is out of
// intKey's range.
//
// When the values span fewer than eight integers per non-null value,
// one presence bit per integer of the span, at most a byte per value,
// lists the distinct values in numeric order. Non-negative values of
// one digit count sort as text in numeric order, so they are formatted
// straight off the bits; the distinct values of any other dense span
// are sorted on their keys. A sparser column sorts the keys of all its
// values.
func (c *column) intSet() (set []string, nonNull int, ok bool) {
	lo, hi := int64(maxKeyed), int64(-maxKeyed)
	for r, v := range c.ints {
		if c.isNull(r) {
			continue
		}
		if v <= -maxKeyed || v >= maxKeyed {
			return nil, 0, false
		}
		lo, hi = min(lo, v), max(hi, v)
		nonNull++
	}
	if nonNull == 0 {
		return []string{}, 0, true
	}
	if uint64(hi-lo) >= 8*uint64(nonNull) {
		keys := make([]uint64, 0, nonNull)
		for r, v := range c.ints {
			if !c.isNull(r) {
				keys = append(keys, intKey(v))
			}
		}
		radixSort(keys)
		return formatKeys(slices.Compact(keys)), nonNull, true
	}
	present := make([]uint64, (hi-lo)/64+1)
	for r, v := range c.ints {
		if !c.isNull(r) {
			o := uint64(v - lo)
			present[o/64] |= 1 << (o % 64)
		}
	}
	distinct := 0
	for _, w := range present {
		distinct += bits.OnesCount64(w)
	}
	if d := digits(uint64(hi)); lo >= 0 && digits(uint64(lo)) == d {
		return formatDigits(present, lo, distinct, d), nonNull, true
	}
	keys := make([]uint64, 0, distinct)
	for v := range members(present, lo) {
		keys = append(keys, intKey(v))
	}
	radixSort(keys)
	return formatKeys(keys), nonNull, true
}

// formatDigits formats the distinct non-negative integers of present,
// all d digits long, into one arena and returns them as slices of it,
// in increasing order. The digits go into a buffer that is copied to
// the arena whenever it fills, and the arena is sliced every d bytes.
func formatDigits(present []uint64, lo int64, distinct, d int) []string {
	var (
		arena strings.Builder
		buf   [1024]byte
	)
	arena.Grow(distinct * d)
	n := 0
	for v := range members(present, lo) {
		if n+d > len(buf) {
			arena.Write(buf[:n])
			n = 0
		}
		for j, u := n+d-1, uint64(v); j >= n; j, u = j-1, u/10 {
			buf[j] = byte('0' + u%10)
		}
		n += d
	}
	arena.Write(buf[:n])
	text := arena.String()
	set := make([]string, distinct)
	for i := range set {
		set[i] = text[i*d : (i+1)*d]
	}
	return set
}

// members yields the integers whose bits are set in present, bit 0
// standing for lo, in increasing order.
func members(present []uint64, lo int64) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		for w, word := range present {
			for ; word != 0; word &= word - 1 {
				if !yield(lo + int64(w*64+bits.TrailingZeros64(word))) {
					return
				}
			}
		}
	}
}

// The canonical encoding of an INTEGER is its decimal text, and the
// paper orders every value set by that text, numbers included (Sec 3.2).
// intKey maps an integer v with |v| < maxKeyed to a key whose numeric
// order is the byte order of strconv.FormatInt(v, 10):
//
//	key(v) = base + (|v|·10^(17−d))·18 + d
//
// where d is the number of decimal digits of |v|, and base is 0 for
// v < 0 and posBase for v ≥ 0. The '-' byte sorts below every digit, so
// all negative keys lie below posBase. Among one sign, |v|·10^(17−d)
// is |v|'s digits padded with zeros to 17 places, which orders the texts
// up to a common prefix, and d (< 18) breaks the ties a shorter text
// wins. Every key is below 2^62, and a key determines v.
const (
	maxKeyed = 100_000_000_000_000_000 // 10^17
	posBase  = 2_000_000_000_000_000_000
)

var pow10 = [18]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
}

func intKey(v int64) uint64 {
	base := uint64(posBase)
	if v < 0 {
		base, v = 0, -v
	}
	a := uint64(v)
	d := uint64(digits(a))
	return base + a*pow10[17-d]*18 + d
}

// digits returns the number of decimal digits of a < 10^17.
func digits(a uint64) int {
	d := 1
	for d < 17 && a >= pow10[d] {
		d++
	}
	return d
}

// keyInt inverts intKey: it returns the integer a key stands for and
// the length of its decimal text.
func keyInt(k uint64) (v int64, n int) {
	neg := k < posBase
	if !neg {
		k -= posBase
	}
	d := k % 18
	v = int64(k / 18 / pow10[17-d])
	if neg {
		return -v, int(d) + 1
	}
	return v, int(d)
}

// formatKeys formats the integers of strictly increasing keys into one
// arena string and returns them as slices of it, in key order.
func formatKeys(keys []uint64) []string {
	size := 0
	for _, k := range keys {
		_, n := keyInt(k)
		size += n
	}
	var arena intArena
	arena.Grow(size)
	vals := make([]string, len(keys))
	for i, k := range keys {
		v, _ := keyInt(k)
		vals[i] = arena.add(v)
	}
	return vals
}

// intArena formats integers into one string, grown once to their total
// length, and hands each text out as a slice of it.
type intArena struct {
	strings.Builder
	buf [20]byte
}

func (a *intArena) add(v int64) string {
	start := a.Len()
	a.Write(strconv.AppendInt(a.buf[:0], v, 10))
	return a.String()[start:]
}

// radixSort sorts keys in place: an LSD radix sort on 8-bit digits that
// skips every digit all keys share.
func radixSort(keys []uint64) {
	if len(keys) < 256 {
		slices.Sort(keys)
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := keys, make([]uint64, len(keys))
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}
