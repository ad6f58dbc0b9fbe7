package ind

import (
	"math"
	"strings"
	"testing"

	"spider/internal/relstore"
	"spider/internal/value"
)

// builderEncodeTuple is the tuple encoder as it was written against a
// strings.Builder, kept as the reference: encodeTuple must write the
// same bytes, so that the staged tuple sets, their order and the bytes
// the merge reads stay what they were.
func builderEncodeTuple(row []value.Value, idx []int) (string, bool) {
	var b strings.Builder
	for n, i := range idx {
		cell := row[i]
		if cell.IsNull() {
			return "", false
		}
		if n > 0 {
			b.WriteByte(0)
		}
		builderEscape(&b, cell.Canonical())
	}
	return b.String(), true
}

func builderEscape(b *strings.Builder, s string) {
	for j := 0; j < len(s); j++ {
		switch s[j] {
		case 0:
			b.WriteByte(1)
			b.WriteByte(2)
		case 1:
			b.WriteByte(1)
			b.WriteByte(1)
		default:
			b.WriteByte(s[j])
		}
	}
}

// encodeAlphabet holds the cells most likely to break an escaped tuple
// encoding: the empty string, the separator and escape bytes, strings
// that are prefixes of one another, and every non-string kind, with the
// floats that render like integers. Index 0 is NULL.
var encodeAlphabet = []value.Value{
	value.NewNull(),
	value.NewString(""), value.NewString("\x00"), value.NewString("\x01"), value.NewString("\x02"),
	value.NewString("\x01\x02"), value.NewString("\x00\x00"), value.NewString("a"), value.NewString("a\x00"),
	value.NewString("\x00a"), value.NewLOB("a\x01"),
	value.NewInt(7), value.NewFloat(7), value.NewFloat(-0.5), value.NewFloat(math.NaN()), value.NewBool(true),
}

// cellsFromBytes decodes fuzz input into cells: a byte with the high
// nibble 0xf picks from encodeAlphabet, any other byte b starts a string
// made of the next b%4 raw bytes.
func cellsFromBytes(data []byte) []value.Value {
	var cells []value.Value
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		if c >= 0xf0 {
			cells = append(cells, encodeAlphabet[int(c-0xf0)%len(encodeAlphabet)])
			continue
		}
		n := min(int(c%4), len(data))
		cells = append(cells, value.NewString(string(data[:n])))
		data = data[n:]
	}
	return cells
}

// FuzzEncodeTuple checks encodeTuple against the strings.Builder
// encoder byte for byte, its append contract (the prefix survives; a
// NULL anywhere returns the prefix alone and false), and injectivity:
// two NULL-free tuples encode alike exactly when their components'
// canonical strings agree position by position.
func FuzzEncodeTuple(f *testing.F) {
	f.Add([]byte{0xf1, 0xf2, 0xf3, 0xf2, 0xf1, 0xf3}, uint8(2))
	f.Add([]byte{0xf7, 0xf9, 0xf8, 0xf1}, uint8(1))
	f.Add([]byte{0xf2, 0xf2, 0xf6, 0xf1}, uint8(1))
	f.Add([]byte{0xf3, 0xf2, 0xf5, 0xf1}, uint8(1))
	f.Add([]byte{0xfb, 0xfc, 0xfc, 0xfb}, uint8(1))
	f.Add([]byte{0xf1, 0xf0, 0xf1, 0xf1}, uint8(1))
	f.Add([]byte{2, 0, 1, 1, 2, 0xf4, 1, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, arity uint8) {
		k := 1 + int(arity)%4
		cells := cellsFromBytes(data)
		if len(cells) < 2*k {
			t.Skip("not enough cells for two tuples")
		}
		idx := make([]int, k)
		for i := range idx {
			idx[i] = k - 1 - i // a column order that is not the row order
		}
		prefix := []byte("pre")
		var enc [2]string
		var ok [2]bool
		for n, row := range [][]value.Value{cells[:k], cells[k : 2*k]} {
			got, gotOK := encodeTuple(append([]byte(nil), prefix...), row, idx)
			want, wantOK := builderEncodeTuple(row, idx)
			if gotOK != wantOK {
				t.Fatalf("tuple %v: ok = %v, builder encoder says %v", row, gotOK, wantOK)
			}
			if !gotOK {
				if string(got) != string(prefix) {
					t.Fatalf("tuple %v with a NULL: returned %q, want the prefix %q", row, got, prefix)
				}
				continue
			}
			if string(got) != string(prefix)+want {
				t.Fatalf("tuple %v: encoded %q, builder encoder %q", row, got[len(prefix):], want)
			}
			enc[n], ok[n] = want, true
		}
		if !ok[0] || !ok[1] {
			return
		}
		same := true
		for _, i := range idx {
			same = same && cells[i].Canonical() == cells[k+i].Canonical()
		}
		if (enc[0] == enc[1]) != same {
			t.Fatalf("tuples %v and %v: encodings equal = %v, components equal = %v",
				cells[:k], cells[k:2*k], enc[0] == enc[1], same)
		}

		// Column-list identities use the same escaping.
		cols := make([]relstore.ColumnRef, k)
		var b strings.Builder
		for i := range cols {
			cols[i] = relstore.ColumnRef{Table: "t", Column: cells[i].Canonical()}
			if i > 0 {
				b.WriteByte(0)
			}
			builderEscape(&b, cols[i].Column)
		}
		if id := listIdent("t", cols); id.Column != b.String() {
			t.Fatalf("listIdent(%q) = %q, builder encoding %q", cols, id.Column, b.String())
		}
	})
}

// TestEncodeTupleAllocations: encoding a tuple of every kind, escapes
// included, into a buffer with room allocates nothing.
func TestEncodeTupleAllocations(t *testing.T) {
	row := []value.Value{
		value.NewString("a\x00b\x01"), value.NewInt(-42), value.NewFloat(2.5), value.NewFloat(3),
		value.NewBool(false), value.NewLOB("lob"),
	}
	idx := []int{5, 0, 3, 1, 4, 2}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf, _ = encodeTuple(buf[:0], row, idx) }); n != 0 {
		t.Errorf("encodeTuple allocates %.0f times into a buffer with room", n)
	}
}
