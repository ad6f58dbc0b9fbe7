package value

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null:     "NULL",
		Bool:     "BOOLEAN",
		Int:      "INTEGER",
		Float:    "FLOAT",
		String:   "VARCHAR",
		LOB:      "LOB",
		Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != Null {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("NewInt(42).Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("NewFloat(2.5).Float() = %g", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("NewString Str = %q", got)
	}
	if got := NewLOB("blob").Str(); got != "blob" {
		t.Errorf("NewLOB Str = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("NewBool round trip failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Int on string", func() { NewString("x").Int() }},
		{"Float on int", func() { NewInt(1).Float() }},
		{"Bool on int", func() { NewInt(1).Bool() }},
		{"Str on int", func() { NewInt(1).Str() }},
		{"Canonical on null", func() { NewNull().Canonical() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewNull(), "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewLOB("payload"), "payload"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestCanonicalIntFloatAgreement(t *testing.T) {
	// An INTEGER 144 and a FLOAT 144.0 must agree canonically, because the
	// paper compares everything through character renderings (to_char).
	if NewInt(144).Canonical() != NewFloat(144).Canonical() {
		t.Error("int and integral float must share canonical encoding")
	}
	if NewFloat(1.5).Canonical() != "1.5" {
		t.Errorf("float canonical = %q", NewFloat(1.5).Canonical())
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(NewNull(), NewNull()) {
		t.Error("NULL must not equal NULL")
	}
	if Equal(NewNull(), NewInt(1)) || Equal(NewInt(1), NewNull()) {
		t.Error("NULL must not equal any value")
	}
	if !Equal(NewInt(3), NewString("3")) {
		t.Error("canonical equality must cross kinds: 3 == \"3\"")
	}
}

func TestCompareIsLexicographic(t *testing.T) {
	// Lexicographic, not numeric: "10" < "9".
	if Compare(NewInt(10), NewInt(9)) >= 0 {
		t.Error(`lexicographically "10" < "9"`)
	}
	if Compare(NewString("abc"), NewString("abd")) >= 0 {
		t.Error("abc < abd")
	}
	if Compare(NewInt(5), NewString("5")) != 0 {
		t.Error("cross-kind equal values must compare 0")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		raw  string
		kind Kind
		want Value
	}{
		{"", Int, NewNull()},
		{"", String, NewNull()},
		{"12", Int, NewInt(12)},
		{"x12", Int, NewString("x12")}, // fallback, never lose data
		{"1.25", Float, NewFloat(1.25)},
		{"abc", Float, NewString("abc")},
		{"true", Bool, NewBool(true)},
		{"no", Bool, NewBool(false)},
		{"maybe", Bool, NewString("maybe")},
		{"text", String, NewString("text")},
		{"blob", LOB, NewLOB("blob")},
	}
	for _, tc := range cases {
		got := Parse(tc.raw, tc.kind)
		if got.Kind() != tc.want.Kind() {
			t.Errorf("Parse(%q,%v) kind = %v, want %v", tc.raw, tc.kind, got.Kind(), tc.want.Kind())
			continue
		}
		if !got.IsNull() && got.Canonical() != tc.want.Canonical() {
			t.Errorf("Parse(%q,%v) = %v, want %v", tc.raw, tc.kind, got, tc.want)
		}
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		raw  string
		want Kind
	}{
		{"", Null},
		{"42", Int},
		{"-3", Int},
		{"3.14", Float},
		{"true", Bool},
		{"False", Bool},
		{"P12345", String},
	}
	for _, tc := range cases {
		if got := Infer(tc.raw); got != tc.want {
			t.Errorf("Infer(%q) = %v, want %v", tc.raw, got, tc.want)
		}
	}
}

func TestWidenKind(t *testing.T) {
	cases := []struct {
		a, b, want Kind
	}{
		{Int, Int, Int},
		{Null, Int, Int},
		{Float, Null, Float},
		{Int, Float, Float},
		{Float, Int, Float},
		{Int, String, String},
		{Bool, Int, String},
		{String, String, String},
	}
	for _, tc := range cases {
		if got := WidenKind(tc.a, tc.b); got != tc.want {
			t.Errorf("WidenKind(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: Compare is a total order consistent with sorting canonical
// encodings, and Equal is consistent with Compare == 0.
func TestCompareConsistencyProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := NewString(a), NewString(b)
		c := Compare(va, vb)
		if (c == 0) != Equal(va, vb) {
			return false
		}
		return c == strings.Compare(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare orders int values identically to sorting their decimal
// renderings lexicographically.
func TestCompareIntsMatchesLexicographicProperty(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		strs := make([]string, len(xs))
		for i, x := range xs {
			vals[i] = NewInt(x)
			strs[i] = vals[i].Canonical()
		}
		sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
		sort.Strings(strs)
		for i := range vals {
			if vals[i].Canonical() != strs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Parse then Canonical is the identity on non-empty strings when
// the declared kind is String.
func TestParseStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if s == "" {
			return Parse(s, String).IsNull()
		}
		return Parse(s, String).Canonical() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseKind pins the round trip between Kind.String and ParseKind —
// the persisted result-set encoding depends on it.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Null, Bool, Int, Float, String, LOB} {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("QUANTUM"); ok {
		t.Error("unknown kind accepted")
	}
	if _, ok := ParseKind(""); ok {
		t.Error("empty kind accepted")
	}
}

// inferReference is the straightforward Infer that FuzzInfer pins the
// allocation-free one to: try both numeric parses, then compare the
// lower-cased text against the boolean words.
func inferReference(raw string) Kind {
	if raw == "" {
		return Null
	}
	if _, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return Int
	}
	if _, err := strconv.ParseFloat(raw, 64); err == nil {
		return Float
	}
	switch strings.ToLower(raw) {
	case "true", "false":
		return Bool
	}
	return String
}

// FuzzInfer: Infer gives every string the kind inferReference gives it.
// The seeds cover Unicode case folding (ſ folds to s but lowercases to
// itself), the float spellings strconv accepts beyond digits, lone signs
// and points, and the boolean spellings Infer must not widen.
func FuzzInfer(f *testing.F) {
	for _, s := range []string{
		"ſ", "falſe", "Inf", "-infinity", "nan", "0x1p-2", "1_000",
		"+", "-", ".", "TRUE", "yes", "P12345",
		"NaN", "infinity", ".5", "+7", "99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Infer(s), inferReference(s); got != want {
			t.Fatalf("Infer(%q) = %v, want %v", s, got, want)
		}
	})
}

func TestInferAllocations(t *testing.T) {
	for _, s := range []string{"P12345", "3.14", "-infinity", "FALSE", "ſ"} {
		if n := testing.AllocsPerRun(100, func() { Infer(s) }); n != 0 {
			t.Errorf("Infer(%q) allocates %.0f times per call", s, n)
		}
	}
}
