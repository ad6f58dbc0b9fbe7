package relstore

import (
	"slices"
	"strings"
)

// SortDistinct sorts vals in byte order, drops the duplicates and
// returns the distinct values, a prefix of vals. Every element of vals
// past the result is set to "", so the dropped strings pin nothing.
//
// It is an in-place MSD radix sort, the American flag sort of McIlroy,
// Bostic and McIlroy (Engineering Radix Sort, Computing Systems 6(1),
// 1993): each level counts the strings of a bucket by their byte at the
// current depth into 257 buckets, "ends here" and one per byte value,
// moves them into place by cycle leaders and sorts each bucket one
// byte deeper. The strings that end at the current depth are equal, so
// that bucket collapses to one string, and each sorted bucket's
// distinct prefix is copied down behind the previous one. A bucket
// whose strings all share the next bytes skips them without moving
// anything. Small buckets are sorted by insertion on their suffixes,
// and past maxLevels nested levels a bucket falls back to a comparison
// sort of its suffixes, so the recursion is bounded whatever the
// input. Apart from two bucket arrays per level it needs no memory.
func SortDistinct(vals []string) []string {
	n := sortDistinct(vals, 0, 0)
	clear(vals[n:])
	return vals[:n]
}

const (
	// insertionCutoff is the bucket size below which insertion beats
	// another level of 257 buckets.
	insertionCutoff = 16
	// maxLevels bounds the nesting of radix levels.
	maxLevels = 32
)

// sortDistinct sorts a, whose strings share their first depth bytes,
// moves its distinct values to the front and returns their number.
// level is the number of radix levels above this one.
func sortDistinct(a []string, depth, level int) int {
	for {
		if len(a) < insertionCutoff {
			return insertDistinct(a, depth)
		}
		if level >= maxLevels {
			slices.SortFunc(a, func(x, y string) int { return strings.Compare(x[depth:], y[depth:]) })
			return len(slices.Compact(a))
		}
		// end[b] is first the size of bucket b, then the index one past
		// its last string; next[b] is where bucket b's next string goes.
		var end, next [257]int
		for _, s := range a {
			end[bucket(s, depth)]++
		}
		if b := bucket(a[0], depth); end[b] == len(a) {
			if b == 0 {
				return 1 // every string ends here: they are equal
			}
			depth += sharedPrefix(a, depth)
			continue
		}
		sum := 0
		for b, n := range &end {
			next[b] = sum
			sum += n
			end[b] = sum
		}
		// Put every string into its bucket: take the first string not
		// yet in place and swap it along its cycle until one that
		// belongs where it was taken from turns up.
		for b := range end {
			for next[b] < end[b] {
				s := a[next[b]]
				for c := bucket(s, depth); c != b; c = bucket(s, depth) {
					s, a[next[c]] = a[next[c]], s
					next[c]++
				}
				a[next[b]] = s
				next[b]++
			}
		}
		// Bucket 0 holds the strings that end at depth, all equal.
		out, start := 0, 0
		for b, stop := range &end {
			if stop == start {
				continue
			}
			n := 1
			if b > 0 {
				n = sortDistinct(a[start:stop], depth+1, level+1)
			}
			copy(a[out:], a[start:start+n])
			out += n
			start = stop
		}
		return out
	}
}

// bucket returns 0 when s ends before depth, else 1 + its byte there.
func bucket(s string, depth int) int {
	if depth < len(s) {
		return int(s[depth]) + 1
	}
	return 0
}

// sharedPrefix returns the number of bytes from depth on that every
// string of a shares; every string is longer than depth.
func sharedPrefix(a []string, depth int) int {
	p := a[0][depth:]
	for _, s := range a[1:] {
		s = s[depth:]
		n := min(len(p), len(s))
		i := 0
		for i < n && p[i] == s[i] {
			i++
		}
		p = p[:i]
	}
	return len(p)
}

// insertDistinct sorts a, whose strings share their first depth bytes,
// by inserting each string into the sorted distinct prefix unless it is
// there already, and returns the prefix's length.
func insertDistinct(a []string, depth int) int {
	k := 0
	for _, s := range a {
		j := k
		c := 1
		for j > 0 {
			if c = strings.Compare(a[j-1][depth:], s[depth:]); c <= 0 {
				break
			}
			j--
		}
		if j > 0 && c == 0 {
			continue
		}
		copy(a[j+1:k+1], a[j:k])
		a[j] = s
		k++
	}
	return k
}
