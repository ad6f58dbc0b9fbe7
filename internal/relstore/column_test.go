package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spider/internal/value"
)

// referenceSet is the sorted distinct set the string path builds:
// every non-null value's canonical encoding, sorted and compacted.
func referenceSet(vals []value.Value) []string {
	out := []string{}
	for _, v := range vals {
		if !v.IsNull() {
			out = append(out, v.Canonical())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkIntPass loads vals, INTEGERs and NULLs, into an INTEGER column and
// checks that the column pass gives the string path's sorted distinct
// set and statistics, both from ColumnStats and from a pass run again
// by DistinctCanonical.
func checkIntPass(t *testing.T, vals []value.Value) {
	t.Helper()
	db := NewDatabase("ints")
	tab := db.MustCreateTable("t", []Column{{Name: "n", Kind: value.Int}})
	for _, v := range vals {
		tab.MustInsert(v)
	}
	if tab.cols[0].boxed {
		t.Fatal("an INTEGER column of INTEGERs and NULLs was demoted")
	}
	s, err := db.ColumnStats(ColumnRef{"t", "n"})
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceStats(tab, 0); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
	want := referenceSet(vals)
	for pass := 0; pass < 2; pass++ {
		got, err := tab.DistinctCanonical("n")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: set %q, want %q", pass, got, want)
		}
	}
}

func ints(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewInt(x)
	}
	return out
}

// TestIntColumnPass: the integer keys order an INTEGER column exactly as
// its decimal texts sort, at every digit count and sign, at the edge of
// the keyed range, and past it, where the column takes the string path.
func TestIntColumnPass(t *testing.T) {
	var powers []int64
	for p, k := int64(1), 0; k <= 18; p, k = p*10, k+1 {
		powers = append(powers, p-1, p, p+1, -(p - 1), -p, -(p + 1))
	}
	rng := rand.New(rand.NewSource(1))
	var many []int64 // past the radix sort's small-input cutoff
	for i := 0; i < 3000; i++ {
		x := rng.Int63n(1_000_000) >> rng.Intn(20)
		if i%3 == 0 {
			x = -x
		}
		many = append(many, x)
	}
	span := func(lo int64, n, width int) []int64 { // n values from lo, the last at lo+width
		out := []int64{lo + int64(width)}
		for i := 0; i < n-1; i++ {
			out = append(out, lo+int64(i*width/n))
		}
		return out
	}
	seq := func(lo, hi int64) []int64 {
		var out []int64
		for x := hi; x >= lo; x-- {
			out = append(out, x, x/2*2)
		}
		return out
	}
	null := value.NewNull()
	cases := map[string][]value.Value{
		"dense span":       ints(span(-50, 100, 799)...), // 799 < 8·100: presence bits
		"sparse span":      ints(span(-50, 100, 800)...), // 800 = 8·100: keys of every value
		"one value":        ints(7, 7, 7, 7, 7),
		"one digit count":  ints(seq(1000, 9999)...),
		"mixed digits":     ints(9, 10, 99, 100, 9, 100, 11, 98),
		"negatives only":   ints(seq(-500, -1)...),
		"mixed signs":      ints(seq(-300, 300)...),
		"dense top edge":   ints(seq(maxKeyed-200, maxKeyed-1)...),
		"dense low edge":   ints(seq(-(maxKeyed - 1), -(maxKeyed - 200))...),
		"dense past edge":  append(ints(seq(0, 100)...), value.NewInt(maxKeyed)),
		"dense with NULLs": append(ints(seq(10, 99)...), null, null, value.NewInt(50), null),
		"zero and units":   ints(0, 1, -1, 2, -2, 9, -9, 0, 1),
		"powers of ten":    ints(powers[:6*17]...), // |v| ≤ 10^16+1
		"keyed edge":       ints(maxKeyed-1, -(maxKeyed - 1), 1e16, -1e16, 0),
		"past the edge":    ints(maxKeyed, -maxKeyed, 5, -5, 10),
		"int64 extremes":   ints(math.MinInt64, math.MaxInt64, 0, -1, 1),
		"all powers":       ints(powers...),
		"all NULL":         {null, null, null},
		"empty":            {},
		"mixed NULLs":      append(ints(3, 30, 3), null, value.NewInt(-3), null, value.NewInt(300)),
		"many duplicates":  ints(many...),
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { checkIntPass(t, vals) })
	}
}

// FuzzIntColumnPass: for any INTEGER column, the pass gives the string
// path's sorted distinct set and statistics. Each 8-byte chunk of data
// is one value, shifted right by shift to reach every digit count;
// bit i%8 of nulls makes value i NULL.
func FuzzIntColumnPass(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 3, 0, 0, 0, 0, 0x80}, 40), uint8(5), uint8(9))
	f.Add(bytes.Repeat([]byte{9, 8, 7, 6, 5, 4, 3, 2}, 300), uint8(0), uint8(40))
	var dense, negative []byte
	for i := 0; i < 64; i++ {
		dense = binary.LittleEndian.AppendUint64(dense, uint64(i*5%97))
		negative = binary.LittleEndian.AppendUint64(negative, uint64(-int64(i%40)))
	}
	f.Add(dense, uint8(0), uint8(0))
	f.Add(dense, uint8(1), uint8(3))
	f.Add(negative, uint8(0), uint8(0x81))
	f.Add(bytes.Repeat([]byte{42, 0, 0, 0, 0, 0, 0, 0}, 30), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shift, nulls uint8) {
		var vals []value.Value
		for i := 0; i+8 <= len(data); i += 8 {
			if nulls&(1<<(i/8%8)) != 0 {
				vals = append(vals, value.NewNull())
				continue
			}
			x := int64(binary.LittleEndian.Uint64(data[i:])) >> (shift % 64)
			vals = append(vals, value.NewInt(x))
		}
		checkIntPass(t, vals)
	})
}

// TestIntKeyRoundTrip: keyInt inverts intKey and reports the length of
// the decimal text.
func TestIntKeyRoundTrip(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 9, 10, -10, 99, 100, 123456, -987654321, maxKeyed - 1, -(maxKeyed - 1)} {
		v, n := keyInt(intKey(x))
		if text := fmt.Sprint(x); v != x || n != len(text) {
			t.Errorf("keyInt(intKey(%d)) = %d, %d; want %d, %d", x, v, n, x, len(text))
		}
	}
}

// TestInsertDemotesIntegerColumn: a VARCHAR, FLOAT, BOOLEAN or LOB value
// inserted into an INTEGER column moves the column to a value vector.
// Every value keeps its kind through Row, Value, ScanColumn, DumpCSV and
// the statistics; the Insert also drops the statistics of the pass run
// before it; and writing into a returned row changes nothing stored.
func TestInsertDemotesIntegerColumn(t *testing.T) {
	for _, odd := range []value.Value{
		value.NewString("x7"), value.NewFloat(2.5), value.NewBool(true), value.NewLOB("blob"),
	} {
		t.Run(odd.Kind().String(), func(t *testing.T) {
			db := NewDatabase("demote")
			tab := db.MustCreateTable("t", []Column{{Name: "n", Kind: value.Int}, {Name: "s", Kind: value.String}})
			want := []value.Value{value.NewInt(12), value.NewNull(), value.NewInt(-3), value.NewInt(12)}
			for _, v := range want {
				tab.MustInsert(v, value.NewString("k"))
			}
			ref := ColumnRef{"t", "n"}
			if s, _ := db.ColumnStats(ref); s.Distinct != 2 {
				t.Fatalf("stats before the insert %+v", s)
			}
			want = append(want, odd, value.NewInt(7))
			tab.MustInsert(odd, value.NewString("k"))
			tab.MustInsert(value.NewInt(7), value.NewString("k"))
			if !tab.cols[0].boxed {
				t.Fatalf("a %v value left the column an int64 vector", odd.Kind())
			}

			for r, w := range want {
				if got := tab.Value(r, 0); got != w {
					t.Errorf("Value(%d, 0) = %#v, want %#v", r, got, w)
				}
				if got := tab.Row(r)[0]; got != w {
					t.Errorf("Row(%d)[0] = %#v, want %#v", r, got, w)
				}
			}
			var scanned []value.Value
			if _, err := tab.ScanColumn("n", func(v value.Value) { scanned = append(scanned, v) }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(scanned, want) {
				t.Errorf("ScanColumn = %v, want %v", scanned, want)
			}
			var csv bytes.Buffer
			if err := tab.DumpCSV(&csv); err != nil {
				t.Fatal(err)
			}
			wantCSV := "n,s\n12,k\n,k\n-3,k\n12,k\n" + odd.String() + ",k\n7,k\n"
			if csv.String() != wantCSV {
				t.Errorf("DumpCSV = %q, want %q", csv.String(), wantCSV)
			}
			if s, _ := db.ColumnStats(ref); s != referenceStats(tab, 0) {
				t.Errorf("stats after the insert %+v, want %+v", s, referenceStats(tab, 0))
			}
			if got, _ := tab.DistinctCanonical("n"); !reflect.DeepEqual(got, referenceSet(want)) {
				t.Errorf("set %q, want %q", got, referenceSet(want))
			}

			row := tab.Row(0)
			row[0], row[1] = value.NewInt(99), value.NewString("changed")
			if got := tab.Row(0); got[0] != want[0] || got[1].Str() != "k" {
				t.Errorf("writing into a returned row changed the table: %v", got)
			}
		})
	}
}

// TestAppendRowReusesBuffer: AppendRow fills a caller's buffer with one
// value per column, INTEGER vectors and value vectors alike.
func TestAppendRowReusesBuffer(t *testing.T) {
	_, tab := newTestDB(t)
	buf := make([]value.Value, 0, len(tab.Columns))
	base := &buf[:1][0]
	for r := 0; r < tab.RowCount(); r++ {
		buf = tab.AppendRow(buf[:0], r)
		if !slices.Equal(buf, tab.Row(r)) || &buf[0] != base {
			t.Errorf("row %d: AppendRow = %v, Row = %v", r, buf, tab.Row(r))
		}
	}
	if got := tab.AppendRow(nil, 1); got[0] != value.NewInt(2) || !got[2].IsNull() {
		t.Errorf("AppendRow(nil, 1) = %v", got)
	}
}

// TestPooledPassCoversDatabase: one statistics call runs the pass of
// every stale table, and only of the stale ones.
func TestPooledPassCoversDatabase(t *testing.T) {
	db, tab := newTestDB(t)
	other := db.MustCreateTable("other", []Column{{Name: "k", Kind: value.Int}})
	other.MustInsert(value.NewInt(5))
	if _, err := db.ColumnStats(ColumnRef{"other", "k"}); err != nil {
		t.Fatal(err)
	}
	if tab.cachedStats() == nil {
		t.Fatal("the pass left a stale table without statistics")
	}
	kept := tab.cachedStats()
	other.MustInsert(value.NewInt(6))
	if s, _ := db.ColumnStats(ColumnRef{"other", "k"}); s.Distinct != 2 {
		t.Errorf("stats after an insert %+v", s)
	}
	if &tab.cachedStats()[0] != &kept[0] {
		t.Error("the pass recomputed a table whose statistics were current")
	}
}

// TestPooledPassConcurrent: goroutines asking for the statistics and
// sets of several tables at once get the sequential reference (run it
// with -race).
func TestPooledPassConcurrent(t *testing.T) {
	db := NewDatabase("race")
	var refs []ColumnRef
	for ti := 0; ti < 6; ti++ {
		name := fmt.Sprintf("t%d", ti)
		tab := db.MustCreateTable(name, []Column{{Name: "i", Kind: value.Int}, {Name: "s", Kind: value.String}})
		for r := 0; r < 300*(ti+1); r++ {
			tab.MustInsert(value.NewInt(int64(r*(ti+3)%977-400)), value.NewString(strings.Repeat("v", r%7)+fmt.Sprint(r%13)))
		}
		refs = append(refs, ColumnRef{name, "i"}, ColumnRef{name, "s"})
	}
	want := make([]ColumnStats, len(refs))
	for i, ref := range refs {
		tab, ci, _ := db.Resolve(ref)
		want[i] = referenceStats(tab, ci)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range refs {
				i := (k + 3*g) % len(refs)
				s, err := db.ColumnStats(refs[i])
				if err != nil || s != want[i] {
					t.Errorf("%s: stats %+v (%v), want %+v", refs[i], s, err, want[i])
				}
				if g%2 == 1 {
					tab := db.Table(refs[i].Table)
					if set, _ := tab.DistinctCanonical(refs[i].Column); len(set) != want[i].Distinct {
						t.Errorf("%s: set of %d values, want %d", refs[i], len(set), want[i].Distinct)
					}
				}
			}
		}()
	}
	wg.Wait()
}
