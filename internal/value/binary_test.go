package value_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestBinaryRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Nil{},
		value.Bool(true),
		value.Bool(false),
		value.Int(0),
		value.Int(-42),
		value.Int(1 << 62),
		value.Float(3.25),
		value.Float(-0.0),
		value.Str(""),
		value.Str("hello\nworld\x00"),
		value.List{},
		value.List{value.Int(1), value.Str("x"), value.List{value.Float(0.5)}},
		value.NewRecord("a", value.Int(1), "b", value.NewRecord("c", value.Bool(false))),
		value.NewRecord(),
	}
	for _, v := range vals {
		data := value.AppendBinary(nil, v)
		back, n, err := value.DecodeBinary(data)
		if err != nil {
			t.Fatalf("DecodeBinary(%v): %v", v, err)
		}
		if n != len(data) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(data))
		}
		if !v.Equal(back) {
			t.Errorf("round trip changed %v -> %v", v, back)
		}
		if v.Kind() != back.Kind() {
			t.Errorf("kind changed: %v -> %v", v.Kind(), back.Kind())
		}
	}
}

// Property: AppendBinary/DecodeBinary round-trips arbitrary generated
// records of int/float/string/bool/list fields, consuming every byte. Floats
// travel as their IEEE 754 bits, so any bit pattern — ±Inf, -0, and NaN
// with any sign and payload — must come back bit for bit; the comparison is
// by bits because NaN is not Equal to itself.
func TestBinaryRoundTripProperty(t *testing.T) {
	const nanBits = 0x7ff0_0000_0000_0001 // all-ones exponent, nonzero mantissa
	f := func(i int64, fl float64, bits uint64, s string, b bool) bool {
		v := value.NewRecord(
			"i", value.Int(i),
			"f", value.Float(fl),
			"bits", value.Float(math.Float64frombits(bits)),
			"nan", value.Float(math.Float64frombits(bits|nanBits)),
			"s", value.Str(s),
			"b", value.Bool(b),
			"l", value.List{value.Int(i), value.Str(s), value.Float(fl)},
		)
		data := value.AppendBinary(nil, v)
		back, n, err := value.DecodeBinary(data)
		return err == nil && n == len(data) && sameBits(v, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sameBits is Value.Equal with floats compared by their bit patterns.
func sameBits(a, b value.Value) bool {
	switch av := a.(type) {
	case value.Float:
		bv, ok := b.(value.Float)
		return ok && math.Float64bits(float64(av)) == math.Float64bits(float64(bv))
	case value.List:
		bv, ok := b.(value.List)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k := range av {
			if !sameBits(av[k], bv[k]) {
				return false
			}
		}
		return true
	case value.Record:
		bv, ok := b.(value.Record)
		if !ok || av.Len() != bv.Len() {
			return false
		}
		for k, name := range av.Names() {
			if bv.Names()[k] != name || !sameBits(av.Field(name), bv.Field(name)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// TestBinaryRecordOrder pins that field order — which group-by keys and
// canonical rendering depend on — survives the hop.
func TestBinaryRecordOrder(t *testing.T) {
	r := value.NewRecord("z", value.Int(1), "a", value.Int(2), "m", value.Int(3))
	back, _, err := value.DecodeBinary(value.AppendBinary(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	names := back.(value.Record).Names()
	want := []string{"z", "a", "m"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("field order %v, want %v", names, want)
		}
	}
}

// TestBinaryTrailingBytes: the decoder must report exactly how much it
// consumed so the bridge can decode many values from one frame.
func TestBinaryTrailingBytes(t *testing.T) {
	data := value.AppendBinary(nil, value.Int(5))
	data = value.AppendBinary(data, value.Str("next"))
	v1, n, err := value.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := value.DecodeBinary(data[n:])
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Equal(value.Int(5)) || !v2.Equal(value.Str("next")) {
		t.Fatalf("sequential decode got %v, %v", v1, v2)
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"unknown tag":       {0xff},
		"truncated float":   {0x04, 1, 2, 3},
		"truncated string":  {0x05, 10, 'a'},
		"bad string length": {0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"list count bomb":   {0x06, 0xff, 0xff, 0xff, 0x7f},
		"record count bomb": {0x07, 0xff, 0xff, 0xff, 0x7f},
		"truncated int":     {0x03, 0x80},
	}
	for name, data := range cases {
		if v, _, err := value.DecodeBinary(data); err == nil {
			t.Errorf("%s: decoded to %v, want error", name, v)
		}
	}

	// Nesting bomb: lists of lists past the depth limit must error, not
	// exhaust the stack.
	deep := bytes.Repeat([]byte{0x06, 0x01}, 200)
	deep = append(deep, 0x00)
	if _, _, err := value.DecodeBinary(deep); err == nil {
		t.Error("200-deep nesting accepted")
	}

	// A duplicate record field is a protocol violation (NewRecord would
	// panic on it; the decoder must error instead).
	dup := []byte{0x07, 0x02, 0x01, 'a', 0x00, 0x01, 'a', 0x00}
	if _, _, err := value.DecodeBinary(dup); err == nil {
		t.Error("duplicate record field accepted")
	}
}

// TestAppendBinaryZeroAlloc: encoding into a warm buffer is the bridge
// sender's per-event hot path and must not allocate.
func TestAppendBinaryZeroAlloc(t *testing.T) {
	// Pre-boxed: the bridge hands AppendBinary an already-interface-typed
	// token, so the measurement must not count the test's own boxing.
	var v value.Value = value.NewRecord("carID", value.Int(7), "speed", value.Float(53.5),
		"tag", value.Str("probe"))
	buf := value.AppendBinary(nil, v) // warm the buffer
	allocs := testing.AllocsPerRun(1000, func() {
		buf = value.AppendBinary(buf[:0], v)
	})
	if allocs != 0 {
		t.Errorf("AppendBinary allocated %.2f objects/op, want 0", allocs)
	}
}
