// Package value implements the typed token system used by the workflow
// kernel. It mirrors the role of Kepler/PtolemyII tokens: every data item
// flowing over a channel is a Value, and actors declare what kinds they
// consume and produce.
//
// Values are immutable once constructed. Record values keep their fields in
// insertion order so that formatting and group-by keys are deterministic.
package value

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the token kinds supported by the engine.
type Kind int

const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
	KindRecord
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindList:
		return "list"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a typed token. Implementations are immutable.
type Value interface {
	// Kind reports the token kind.
	Kind() Kind
	// String renders the token in the engine's canonical textual form.
	String() string
	// Equal reports whether the receiver and v hold the same kind and data.
	Equal(v Value) bool
}

// Nil is the nil token (absence of a value).
type Nil struct{}

// Kind implements Value.
func (Nil) Kind() Kind { return KindNil }

// String implements Value.
func (Nil) String() string { return "nil" }

// Equal implements Value.
func (Nil) Equal(v Value) bool { _, ok := v.(Nil); return ok }

// Bool is a boolean token.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// String implements Value.
func (b Bool) String() string { return strconv.FormatBool(bool(b)) }

// Equal implements Value.
func (b Bool) Equal(v Value) bool { o, ok := v.(Bool); return ok && o == b }

// Int is a 64-bit integer token.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// String implements Value.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Equal implements Value.
func (i Int) Equal(v Value) bool { o, ok := v.(Int); return ok && o == i }

// Float is a 64-bit floating point token.
type Float float64

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// String implements Value.
func (f Float) String() string { return strconv.FormatFloat(float64(f), 'g', -1, 64) }

// Equal implements Value.
func (f Float) Equal(v Value) bool { o, ok := v.(Float); return ok && o == f }

// String is a string token. It is named Str to avoid colliding with the
// Stringer method.
type Str string

// Kind implements Value.
func (Str) Kind() Kind { return KindString }

// String implements Value.
func (s Str) String() string { return strconv.Quote(string(s)) }

// Equal implements Value.
func (s Str) Equal(v Value) bool { o, ok := v.(Str); return ok && o == s }

// List is an ordered sequence of values.
type List []Value

// Kind implements Value.
func (List) Kind() Kind { return KindList }

// String implements Value.
func (l List) String() string { return string(Append(nil, l)) }

// Append appends v's canonical textual form — exactly v.String() — to dst
// and returns the extended buffer. Rendering into a reused buffer is what
// keeps group-by key lookups on the window operator allocation-free.
func Append(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case Nil:
		return append(dst, "nil"...)
	case Bool:
		return strconv.AppendBool(dst, bool(v))
	case Int:
		return strconv.AppendInt(dst, int64(v), 10)
	case Float:
		return strconv.AppendFloat(dst, float64(v), 'g', -1, 64)
	case Str:
		return strconv.AppendQuote(dst, string(v))
	case List:
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = Append(dst, e)
		}
		return append(dst, ']')
	case Record:
		dst = append(dst, '{')
		for i, name := range v.Names() {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, name...)
			dst = append(dst, ": "...)
			dst = Append(dst, v.vals[i])
		}
		return append(dst, '}')
	default:
		return append(dst, v.String()...)
	}
}

// Equal implements Value.
func (l List) Equal(v Value) bool {
	o, ok := v.(List)
	if !ok || len(o) != len(l) {
		return false
	}
	for i := range l {
		if !l[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Record is an immutable set of named fields with deterministic order.
// Construct records with NewRecord; the zero Record is empty.
//
// A record is its schema — the field names in order, interned and shared by
// every record with the same names — plus one slice of values laid out by
// it, so building one allocates only the value slice.
type Record struct {
	s    *schema
	vals []Value
}

// NewRecord builds a record from alternating name/value pairs:
//
//	r := value.NewRecord("carID", value.Int(7), "speed", value.Float(53))
//
// It panics if the argument list is malformed, mirroring fmt-style misuse.
func NewRecord(pairs ...any) Record {
	if len(pairs)%2 != 0 {
		panic("value.NewRecord: odd number of arguments")
	}
	var buf [scanFields]string
	names := buf[:0]
	vals := make([]Value, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.NewRecord: argument %d is not a field name", i))
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("value.NewRecord: field %q is not a Value", name))
		}
		names = append(names, name)
		vals[i/2] = v
	}
	s, err := schemaOf(names)
	if err != nil {
		panic("value.NewRecord: " + err.Error())
	}
	return Record{s: s, vals: vals}
}

// Kind implements Value.
func (Record) Kind() Kind { return KindRecord }

// String implements Value.
func (r Record) String() string { return string(Append(nil, r)) }

// Equal implements Value. Field order does not affect equality.
func (r Record) Equal(v Value) bool {
	o, ok := v.(Record)
	if !ok || len(o.vals) != len(r.vals) {
		return false
	}
	if r.s == o.s {
		for i, rv := range r.vals {
			if !rv.Equal(o.vals[i]) {
				return false
			}
		}
		return true
	}
	for i, name := range r.s.fieldNames() {
		j := o.s.find(name)
		if j < 0 || !r.vals[i].Equal(o.vals[j]) {
			return false
		}
	}
	return true
}

// Len returns the number of fields.
func (r Record) Len() int { return len(r.vals) }

// Names returns the field names in insertion order. The slice is shared by
// every record of the same schema: the caller must not modify it.
func (r Record) Names() []string { return r.s.fieldNames() }

// Get returns the named field and whether it exists.
func (r Record) Get(name string) (Value, bool) {
	if i := r.s.find(name); i >= 0 {
		return r.vals[i], true
	}
	return nil, false
}

// Field returns the named field or Nil{} if absent.
func (r Record) Field(name string) Value {
	if i := r.s.find(name); i >= 0 {
		return r.vals[i]
	}
	return Nil{}
}

// Int returns the named field as an int64. Float fields are truncated.
// Missing or non-numeric fields return 0.
func (r Record) Int(name string) int64 {
	switch v := r.Field(name).(type) {
	case Int:
		return int64(v)
	case Float:
		return int64(v)
	default:
		return 0
	}
}

// Float returns the named field as a float64. Missing or non-numeric fields
// return 0.
func (r Record) Float(name string) float64 {
	switch v := r.Field(name).(type) {
	case Float:
		return float64(v)
	case Int:
		return float64(v)
	default:
		return 0
	}
}

// Text returns the named field as an unquoted string, or "" if absent or not
// a string token.
func (r Record) Text(name string) string {
	if v, ok := r.Field(name).(Str); ok {
		return string(v)
	}
	return ""
}

// Bool returns the named field as a bool, or false if absent or not boolean.
func (r Record) Bool(name string) bool {
	if v, ok := r.Field(name).(Bool); ok {
		return bool(v)
	}
	return false
}

// With returns a copy of the record with the named field set (added or
// replaced). The receiver is unchanged.
func (r Record) With(name string, v Value) Record {
	if i := r.s.find(name); i >= 0 {
		vals := slices.Clone(r.vals)
		vals[i] = v
		return Record{s: r.s, vals: vals}
	}
	vals := make([]Value, len(r.vals)+1)
	copy(vals, r.vals)
	vals[len(r.vals)] = v
	return Record{s: r.s.derive(name), vals: vals}
}

// Without returns a copy of the record with the named field removed.
func (r Record) Without(name string) Record {
	i := r.s.find(name)
	if i < 0 {
		return r
	}
	vals := make([]Value, 0, len(r.vals)-1)
	vals = append(append(vals, r.vals[:i]...), r.vals[i+1:]...)
	return Record{s: r.s.derive(name), vals: vals}
}

// Key builds a deterministic group-by key from the named fields. Missing
// fields contribute the nil token. The key is stable across runs and field
// orderings.
func (r Record) Key(fields ...string) string { return string(r.AppendKey(nil, fields...)) }

// AppendKey appends the group-by key Key builds to dst and returns the
// extended buffer: the fields' values rendered by Append, joined by '|'.
func (r Record) AppendKey(dst []byte, fields ...string) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = Append(dst, r.Field(f))
	}
	return dst
}

// SortedNames returns the field names sorted lexicographically. It is used
// when a canonical, order-insensitive rendering of a record is needed.
func (r Record) SortedNames() []string {
	out := slices.Clone(r.Names())
	sort.Strings(out)
	return out
}

// Compare orders two values. Values of different kinds order by Kind. Within
// a kind the natural order applies; records compare by their canonical
// string. The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if a.Kind() != b.Kind() {
		return cmpInt(int64(a.Kind()), int64(b.Kind()))
	}
	switch av := a.(type) {
	case Nil:
		return 0
	case Bool:
		bv := b.(Bool)
		switch {
		case av == bv:
			return 0
		case !bool(av):
			return -1
		default:
			return 1
		}
	case Int:
		return cmpInt(int64(av), int64(b.(Int)))
	case Float:
		bv := b.(Float)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	case Str:
		return strings.Compare(string(av), string(b.(Str)))
	case List:
		bv := b.(List)
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			if c := Compare(av[i], bv[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(av)), int64(len(bv)))
	case Record:
		return strings.Compare(canonical(av), canonical(b.(Record)))
	default:
		return strings.Compare(a.String(), b.String())
	}
}

func canonical(r Record) string {
	names := r.SortedNames()
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(r.Field(n).String())
		b.WriteByte(';')
	}
	return b.String()
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
