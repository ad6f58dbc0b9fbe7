// Package value defines the typed value model shared by the relational
// store, the mini SQL engine and the IND algorithms.
//
// The paper sorts attribute values "using an arbitrary but fixed sorting
// criteria ... lexicographic sorting for all values including numeric
// values, because the actual order of values is irrelevant as long as it is
// consistent over all sets" (Sec 3.2). The canonical encoding produced by
// Value.Canonical realises exactly that contract: two values of any kinds
// compare equal under the encoding iff they denote the same attribute
// value, and the encoding's byte order is a fixed total order.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported kinds. LOB is a large-object kind that the candidate
// generator excludes from dependent attributes, per Sec 2 of the paper.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
	LOB
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Bool:
		return "BOOLEAN"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case LOB:
		return "LOB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind inverts Kind.String: it maps a persisted kind name back to
// the Kind, which is how the result-set persistence round-trips column
// types. ok is false for names no Kind renders to.
func ParseKind(s string) (Kind, bool) {
	for _, k := range []Kind{Null, Bool, Int, Float, String, LOB} {
		if k.String() == s {
			return k, true
		}
	}
	return Null, false
}

// Value is an immutable dynamically typed database value. The zero Value
// is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{kind: Bool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: Float, f: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// NewLOB returns a LOB value. LOBs participate in storage but never in IND
// candidates (Sec 2: dependent attributes are "non-empty columns of any
// type except LOB").
func NewLOB(s string) Value { return Value{kind: LOB, s: s} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload. It panics if v is not a BOOLEAN.
func (v Value) Bool() bool {
	if v.kind != Bool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// Int returns the integer payload. It panics if v is not an INTEGER.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload. It panics if v is not a FLOAT.
func (v Value) Float() float64 {
	if v.kind != Float {
		panic("value: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the string payload of a VARCHAR or LOB. It panics otherwise.
func (v Value) Str() string {
	if v.kind != String && v.kind != LOB {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// String renders v for humans; NULLs render as the SQL literal NULL.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String, LOB:
		return v.s
	default:
		return "?"
	}
}

// Canonical returns the fixed lexicographic encoding of v used for sorted
// value files and cross-attribute comparison. It corresponds to the
// to_char(...) casts in the paper's MINUS and NOT IN statements (Fig. 3, 4):
// every value is compared through its character rendering. NULL has no
// canonical encoding; callers must filter NULLs first (value sets s(a) are
// sets of non-null values).
func (v Value) Canonical() string {
	switch v.kind {
	case Null:
		panic("value: Canonical() on NULL")
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		// Integral floats render like integers so that an INTEGER column
		// and a FLOAT column holding the same number agree, mirroring
		// to_char behaviour.
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e15 {
			return strconv.FormatInt(int64(v.f), 10)
		}
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String, LOB:
		return v.s
	default:
		panic("value: Canonical() on unknown kind")
	}
}

// Compare totally orders non-null values: first by canonical encoding.
// It panics on NULL operands; SQL NULL comparison semantics are handled by
// the query engine, not here.
func Compare(a, b Value) int {
	return strings.Compare(a.Canonical(), b.Canonical())
}

// Equal reports whether a and b denote the same attribute value under the
// canonical encoding. NULL equals nothing, not even NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return a.Canonical() == b.Canonical()
}

// Parse interprets raw as a value of the requested kind. Empty strings
// parse as NULL for every kind, matching the CSV convention used by the
// loader. Parsing raw as Int or Float falls back to VARCHAR when the text
// is not numeric; this mirrors the paper's observation that in life-science
// schemas "often even attributes containing solely integers are represented
// as string" — the loader never loses data to a parse error.
func Parse(raw string, kind Kind) Value {
	if raw == "" {
		return NewNull()
	}
	switch kind {
	case Bool:
		switch strings.ToLower(raw) {
		case "true", "t", "1", "yes":
			return NewBool(true)
		case "false", "f", "0", "no":
			return NewBool(false)
		}
		return NewString(raw)
	case Int:
		if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
			return NewInt(i)
		}
		return NewString(raw)
	case Float:
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return NewFloat(f)
		}
		return NewString(raw)
	case LOB:
		return NewLOB(raw)
	default:
		return NewString(raw)
	}
}

// Infer guesses the narrowest kind that can represent raw: INTEGER, then
// FLOAT, then BOOLEAN, then VARCHAR. Empty strings carry no information and
// infer as NULL.
//
// Infer runs once per loaded field, so it never lets strconv fail: a
// failed parse allocates a *strconv.NumError holding a copy of the input.
// ParseInt is tried only on an optionally signed run of decimal digits,
// the only text it accepts in base 10, and ParseFloat only when the first
// byte can begin a float literal.
func Infer(raw string) Kind {
	if raw == "" {
		return Null
	}
	if isDecimal(raw) {
		if _, err := strconv.ParseInt(raw, 10, 64); err == nil {
			return Int
		}
	}
	if mayStartFloat(raw[0]) {
		if _, err := strconv.ParseFloat(raw, 64); err == nil {
			return Float
		}
	}
	if isBoolWord(raw) {
		return Bool
	}
	return String
}

// isDecimal reports whether s is an optional sign followed by one or more
// ASCII digits.
func isDecimal(s string) bool {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// mayStartFloat reports whether c can be the first byte of text that
// strconv.ParseFloat accepts: a digit (also of a 0x hex literal), a sign,
// a decimal point, or the first letter of inf, infinity or nan.
func mayStartFloat(c byte) bool {
	switch {
	case c >= '0' && c <= '9':
		return true
	case c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// isBoolWord reports whether s is "true" or "false" in any ASCII case.
// No non-ASCII rune lowercases to a letter of either word, so this
// matches strings.ToLower(s) == "true" || == "false" without allocating.
func isBoolWord(s string) bool {
	switch len(s) {
	case 4:
		return asciiFold(s, "true")
	case 5:
		return asciiFold(s, "false")
	}
	return false
}

// asciiFold reports whether s equals the lowercase ASCII word w once its
// ASCII upper-case letters are lowered. len(s) must equal len(w).
func asciiFold(s, w string) bool {
	for i := 0; i < len(w); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

// WidenKind returns the narrowest kind that can hold both a and b, used by
// the CSV loader's type inference across rows.
func WidenKind(a, b Kind) Kind {
	if a == b {
		return a
	}
	if a == Null {
		return b
	}
	if b == Null {
		return a
	}
	// Int widens to Float; everything else widens to String.
	if (a == Int && b == Float) || (a == Float && b == Int) {
		return Float
	}
	return String
}
