package value

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNil:    "nil",
		KindBool:   "bool",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		KindList:   "list",
		KindRecord: "record",
		Kind(42):   "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestScalarStringForms(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil{}, "nil"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Str("hi"), `"hi"`},
		{List{Int(1), Str("a")}, `[1, "a"]`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestEqualAcrossKinds(t *testing.T) {
	vals := []Value{Nil{}, Bool(true), Int(1), Float(1), Str("1"), List{Int(1)}, NewRecord("a", Int(1))}
	for i, a := range vals {
		for j, b := range vals {
			got := a.Equal(b)
			want := i == j
			if got != want {
				t.Errorf("Equal(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestRecordBasics(t *testing.T) {
	r := NewRecord("carID", Int(7), "speed", Float(53.5), "lane", Str("exit"), "stopped", Bool(true))
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if got := r.Int("carID"); got != 7 {
		t.Errorf("Int(carID) = %d, want 7", got)
	}
	if got := r.Float("speed"); got != 53.5 {
		t.Errorf("Float(speed) = %v, want 53.5", got)
	}
	if got := r.Text("lane"); got != "exit" {
		t.Errorf("Text(lane) = %q, want exit", got)
	}
	if !r.Bool("stopped") {
		t.Errorf("Bool(stopped) = false, want true")
	}
	// Numeric coercions.
	if got := r.Float("carID"); got != 7 {
		t.Errorf("Float(carID) = %v, want 7", got)
	}
	if got := r.Int("speed"); got != 53 {
		t.Errorf("Int(speed) = %d, want 53 (truncated)", got)
	}
	// Missing fields.
	if got := r.Int("missing"); got != 0 {
		t.Errorf("Int(missing) = %d, want 0", got)
	}
	if _, ok := r.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
	if v := r.Field("missing"); !v.Equal(Nil{}) {
		t.Errorf("Field(missing) = %v, want nil token", v)
	}
}

func TestRecordStringPreservesInsertionOrder(t *testing.T) {
	r := NewRecord("b", Int(2), "a", Int(1))
	if got, want := r.String(), "{b: 2, a: 1}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRecordEqualityIgnoresOrder(t *testing.T) {
	a := NewRecord("x", Int(1), "y", Int(2))
	b := NewRecord("y", Int(2), "x", Int(1))
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("records with same fields in different order should be equal")
	}
	c := NewRecord("x", Int(1))
	if a.Equal(c) || c.Equal(a) {
		t.Error("records with different field sets should not be equal")
	}
}

func TestRecordWithAndWithout(t *testing.T) {
	base := NewRecord("a", Int(1), "b", Int(2))
	mod := base.With("c", Int(3)).With("a", Int(10))
	if got := base.Len(); got != 2 {
		t.Fatalf("base mutated: Len = %d", got)
	}
	if got := mod.Int("a"); got != 10 {
		t.Errorf("With replace: a = %d, want 10", got)
	}
	if got := mod.Int("c"); got != 3 {
		t.Errorf("With add: c = %d, want 3", got)
	}
	if got, want := mod.String(), "{a: 10, b: 2, c: 3}"; got != want {
		t.Errorf("With order: %q, want %q", got, want)
	}
	del := mod.Without("b")
	if _, ok := del.Get("b"); ok {
		t.Error("Without did not remove field")
	}
	if del.Len() != 2 {
		t.Errorf("Without: Len = %d, want 2", del.Len())
	}
}

func TestRecordNewRecordPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"odd args", func() { NewRecord("a") }},
		{"non-string name", func() { NewRecord(Int(1), Int(2)) }},
		{"non-value field", func() { NewRecord("a", 5) }},
		{"duplicate field", func() { NewRecord("a", Int(1), "a", Int(2)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestRecordKey(t *testing.T) {
	r := NewRecord("xway", Int(0), "dir", Int(1), "seg", Int(42))
	if got, want := r.Key("xway", "dir", "seg"), "0|1|42"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := r.Key("seg"), "42"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := r.Key("nope"), "nil"; got != want {
		t.Errorf("Key(missing) = %q, want %q", got, want)
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		Nil{},
		Bool(false), Bool(true),
		Int(-1), Int(0), Int(5),
		Float(-2.5), Float(0), Float(9.5),
		Str("a"), Str("b"),
		List{}, List{Int(1)}, List{Int(1), Int(2)}, List{Int(2)},
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := cmpInt(int64(i), int64(j))
			// Values of equal rank must compare 0; otherwise sign must match.
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Errorf("Compare(%v, %v) = %d, want sign of %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNil(t *testing.T) {
	if got := Compare(nil, nil); got != 0 {
		t.Errorf("Compare(nil, nil) = %d", got)
	}
	if got := Compare(nil, Int(1)); got != -1 {
		t.Errorf("Compare(nil, 1) = %d", got)
	}
	if got := Compare(Int(1), nil); got != 1 {
		t.Errorf("Compare(1, nil) = %d", got)
	}
}

func TestCompareRecordsCanonical(t *testing.T) {
	a := NewRecord("x", Int(1), "y", Int(2))
	b := NewRecord("y", Int(2), "x", Int(1))
	if got := Compare(a, b); got != 0 {
		t.Errorf("Compare of equal records = %d, want 0", got)
	}
	c := NewRecord("x", Int(1), "y", Int(3))
	if got := Compare(a, c); got >= 0 {
		t.Errorf("Compare(a, c) = %d, want < 0", got)
	}
}

// Property: Compare is antisymmetric and consistent with Equal for scalars.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		va, vb := Float(a), Float(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(a, b string) bool {
		va, vb := Str(a), Str(b)
		c := Compare(va, vb)
		if (c == 0) != (a == b) {
			return false
		}
		return c == -Compare(vb, va)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

// Property: record Key is deterministic and injective over differing field
// values for a fixed field list of ints.
func TestRecordKeyProperty(t *testing.T) {
	f := func(a1, b1, a2, b2 int64) bool {
		r1 := NewRecord("a", Int(a1), "b", Int(b1))
		r2 := NewRecord("a", Int(a2), "b", Int(b2))
		k1 := r1.Key("a", "b")
		k2 := r2.Key("a", "b")
		if k1 != r1.Key("a", "b") {
			return false // non-deterministic
		}
		same := a1 == a2 && b1 == b2
		return (k1 == k2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var sinkRecord Record

// TestNewRecordAllocs pins NewRecord to exactly one allocation, the value
// slice: the field names are looked up in the intern table without
// allocating or locking, so the record shares its schema with every earlier
// record of the same names.
func TestNewRecordAllocs(t *testing.T) {
	for _, n := range []int{2, 9} {
		pairs := make([]any, 0, 2*n)
		for i := 0; i < n; i++ {
			pairs = append(pairs, string(rune('a'+i)), Int(int64(1000+i)))
		}
		sinkRecord = NewRecord(pairs...) // interns the schema
		if got := testing.AllocsPerRun(100, func() { sinkRecord = NewRecord(pairs...) }); got != 1 {
			t.Errorf("%d-field NewRecord allocates %v objects, want 1 (the value slice)", n, got)
		}
	}
}
