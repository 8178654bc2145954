// Binary codec for Values: the wire format used by the distributed bridges
// (internal/dist) when events cross node boundaries. It is built for the
// bridge hot path: encoding appends into a caller-owned buffer without
// allocating, and decoding performs one allocation per composite value.
//
// Layout: one tag byte followed by a kind-specific payload.
//
//	0x00 nil     —
//	0x01 false   —
//	0x02 true    —
//	0x03 int     zigzag varint
//	0x04 float   8 bytes, IEEE 754 bits little-endian
//	0x05 string  uvarint length, raw bytes
//	0x06 list    uvarint count, then count encoded values
//	0x07 record  uvarint count, then count × (uvarint name length, name
//	             bytes, encoded value), in the record's field order
//
// The format carries no version byte of its own; the bridge frame header
// owns versioning for everything inside a frame.
package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	binNil    = 0x00
	binFalse  = 0x01
	binTrue   = 0x02
	binInt    = 0x03
	binFloat  = 0x04
	binString = 0x05
	binList   = 0x06
	binRecord = 0x07
)

// maxBinaryDepth bounds decoder recursion so a malicious frame cannot blow
// the stack with deeply nested lists.
const maxBinaryDepth = 100

// AppendBinary appends the binary encoding of v to buf and returns the
// extended buffer. A nil Value encodes as the nil token. Once buf has grown
// to the steady-state working set the call performs no allocations, which
// is what lets the bridge sender hit zero allocs per event.
func AppendBinary(buf []byte, v Value) []byte {
	if v == nil {
		return append(buf, binNil)
	}
	switch tv := v.(type) {
	case Nil:
		return append(buf, binNil)
	case Bool:
		if tv {
			return append(buf, binTrue)
		}
		return append(buf, binFalse)
	case Int:
		buf = append(buf, binInt)
		return binary.AppendVarint(buf, int64(tv))
	case Float:
		buf = append(buf, binFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(tv)))
	case Str:
		buf = append(buf, binString)
		buf = binary.AppendUvarint(buf, uint64(len(tv)))
		return append(buf, tv...)
	case List:
		buf = append(buf, binList)
		buf = binary.AppendUvarint(buf, uint64(len(tv)))
		for _, el := range tv {
			buf = AppendBinary(buf, el)
		}
		return buf
	case Record:
		buf = append(buf, binRecord)
		buf = binary.AppendUvarint(buf, uint64(len(tv.names)))
		for _, name := range tv.names {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
			buf = AppendBinary(buf, tv.fields[name])
		}
		return buf
	default:
		// Foreign Value implementations degrade to their canonical string.
		s := v.String()
		buf = append(buf, binString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	}
}

// DecodeBinary decodes one binary-encoded value from the front of b,
// returning the value and the number of bytes consumed. Trailing bytes are
// left for the caller (the bridge decodes many values from one frame).
func DecodeBinary(b []byte) (Value, int, error) {
	v, n, err := decodeBinary(b, 0)
	if err != nil {
		return nil, 0, err
	}
	return v, n, nil
}

func decodeBinary(b []byte, depth int) (Value, int, error) {
	if depth > maxBinaryDepth {
		return nil, 0, fmt.Errorf("value: binary decode: nesting deeper than %d", maxBinaryDepth)
	}
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("value: binary decode: empty input")
	}
	tag := b[0]
	rest := b[1:]
	switch tag {
	case binNil:
		return Nil{}, 1, nil
	case binFalse:
		return Bool(false), 1, nil
	case binTrue:
		return Bool(true), 1, nil
	case binInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("value: binary decode: bad int varint")
		}
		return Int(i), 1 + n, nil
	case binFloat:
		if len(rest) < 8 {
			return nil, 0, fmt.Errorf("value: binary decode: truncated float")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 1 + 8, nil
	case binString:
		s, n, err := decodeBytes(rest, "string")
		if err != nil {
			return nil, 0, err
		}
		return Str(s), 1 + n, nil
	case binList:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("value: binary decode: bad list count")
		}
		if count > uint64(len(rest)-n) {
			// Each element needs at least one byte; an impossible count means
			// a corrupt or adversarial frame, so fail before allocating.
			return nil, 0, fmt.Errorf("value: binary decode: list count %d exceeds input", count)
		}
		used := 1 + n
		out := make(List, 0, count)
		for i := uint64(0); i < count; i++ {
			el, m, err := decodeBinary(b[used:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, el)
			used += m
		}
		return out, used, nil
	case binRecord:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("value: binary decode: bad record count")
		}
		if count > uint64(len(rest)-n) {
			return nil, 0, fmt.Errorf("value: binary decode: record count %d exceeds input", count)
		}
		used := 1 + n
		r := Record{
			names:  make([]string, 0, count),
			fields: make(map[string]Value, count),
		}
		for i := uint64(0); i < count; i++ {
			name, m, err := decodeBytes(b[used:], "record field name")
			if err != nil {
				return nil, 0, err
			}
			used += m
			fv, m2, err := decodeBinary(b[used:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			used += m2
			if _, dup := r.fields[name]; dup {
				return nil, 0, fmt.Errorf("value: binary decode: duplicate record field %q", name)
			}
			r.names = append(r.names, name)
			r.fields[name] = fv
		}
		return r, used, nil
	default:
		return nil, 0, fmt.Errorf("value: binary decode: unknown tag 0x%02x", tag)
	}
}

// decodeBytes reads a uvarint-length-prefixed byte run from b, returning the
// bytes as a string and the total bytes consumed.
func decodeBytes(b []byte, what string) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, fmt.Errorf("value: binary decode: bad %s length", what)
	}
	if l > uint64(len(b)-n) {
		return "", 0, fmt.Errorf("value: binary decode: %s length %d exceeds input", what, l)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}
