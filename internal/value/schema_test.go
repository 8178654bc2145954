package value

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refRecord is the map-backed record representation Record replaced, kept
// here as the reference model the flat representation must match.
type refRecord struct {
	names  []string
	fields map[string]Value
}

func (r refRecord) with(name string, v Value) refRecord {
	out := refRecord{names: slices.Clone(r.names), fields: map[string]Value{}}
	for k, fv := range r.fields {
		out.fields[k] = fv
	}
	if _, ok := out.fields[name]; !ok {
		out.names = append(out.names, name)
	}
	out.fields[name] = v
	return out
}

func (r refRecord) without(name string) refRecord {
	out := refRecord{fields: map[string]Value{}}
	for _, n := range r.names {
		if n != name {
			out.names = append(out.names, n)
			out.fields[n] = r.fields[n]
		}
	}
	return out
}

func (r refRecord) field(name string) Value {
	if v, ok := r.fields[name]; ok {
		return v
	}
	return Nil{}
}

func (r refRecord) String() string {
	parts := make([]string, len(r.names))
	for i, n := range r.names {
		parts[i] = n + ": " + r.fields[n].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (r refRecord) key(fields ...string) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = r.field(f).String()
	}
	return strings.Join(parts, "|")
}

func (r refRecord) equal(o refRecord) bool {
	if len(r.fields) != len(o.fields) {
		return false
	}
	for n, v := range r.fields {
		if ov, ok := o.fields[n]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

func (r refRecord) canonical() string {
	names := slices.Clone(r.names)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n + "=" + r.fields[n].String() + ";")
	}
	return b.String()
}

func (r refRecord) binary() []byte {
	buf := binary.AppendUvarint([]byte{binRecord}, uint64(len(r.names)))
	for _, n := range r.names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
		buf = AppendBinary(buf, r.fields[n])
	}
	return buf
}

// resetInternTable empties the intern table when the test ends, so a test
// that fills it leaves later tests the sharing they expect.
func resetInternTable(t *testing.T) {
	t.Cleanup(func() {
		table.mu.Lock()
		defer table.mu.Unlock()
		for i := range table.slots {
			table.slots[i].Store(nil)
		}
		table.n = 0
		table.full.Store(false)
	})
}

func internedCount() int {
	table.mu.Lock()
	defer table.mu.Unlock()
	return table.n
}

// fillInternTable interns never-seen schemas until the table is at its
// bound.
func fillInternTable() {
	for i := 0; !table.full.Load(); i++ {
		NewRecord(fmt.Sprintf("filler-%d", i), Nil{})
	}
}

// TestRecordMatchesMapModel runs random sequences of record operations on
// Record and on the map-backed reference model side by side and checks every
// observable result agrees: accessors, keys, rendering, equality, ordering
// and the binary encoding byte for byte. Records span the scan/map lookup
// threshold; the second pass runs with the intern table full, so every new
// schema is private.
func TestRecordMatchesMapModel(t *testing.T) {
	resetInternTable(t)
	pool := make([]string, 3*scanFields)
	for i := range pool {
		pool[i] = fmt.Sprintf("f%d", i)
	}
	for pass, full := range []bool{false, true} {
		if full {
			fillInternTable()
		}
		rng := rand.New(rand.NewPCG(uint64(pass), 38))
		randValue := func() Value {
			switch rng.IntN(6) {
			case 0:
				return Int(rng.Int64N(10) - 5)
			case 1:
				return Int(rng.Int64())
			case 2:
				return Float(rng.NormFloat64())
			case 3:
				return Str(pool[rng.IntN(len(pool))])
			case 4:
				return Bool(rng.IntN(2) == 0)
			default:
				return Nil{}
			}
		}
		var flats []Record
		var refs []refRecord
		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(10); {
			case op < 2 || len(flats) == 0:
				n := rng.IntN(2*scanFields + 4)
				if rng.IntN(4) == 0 {
					n = rng.IntN(4) // many small records share few schemas
				}
				names := slices.Clone(pool)
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
				pairs := make([]any, 0, 2*n)
				ref := refRecord{fields: map[string]Value{}}
				for _, name := range names[:n] {
					v := randValue()
					pairs = append(pairs, name, v)
					ref.names = append(ref.names, name)
					ref.fields[name] = v
				}
				flats, refs = append(flats, NewRecord(pairs...)), append(refs, ref)
			case op < 5:
				i, name, v := rng.IntN(len(flats)), pool[rng.IntN(len(pool))], randValue()
				flats, refs = append(flats, flats[i].With(name, v)), append(refs, refs[i].with(name, v))
			case op < 7:
				i, name := rng.IntN(len(flats)), pool[rng.IntN(len(pool))]
				if rng.IntN(2) == 0 && flats[i].Len() > 0 {
					name = flats[i].Names()[rng.IntN(flats[i].Len())]
				}
				flats, refs = append(flats, flats[i].Without(name)), append(refs, refs[i].without(name))
			default:
				i, j := rng.IntN(len(flats)), rng.IntN(len(flats))
				if rng.IntN(3) == 0 {
					// A rebuilt copy in shuffled order: equal, with another schema.
					perm := rng.Perm(len(refs[i].names))
					pairs := make([]any, 0, 2*len(perm))
					ref := refRecord{fields: map[string]Value{}}
					for _, p := range perm {
						name := refs[i].names[p]
						pairs = append(pairs, name, refs[i].fields[name])
						ref.names = append(ref.names, name)
						ref.fields[name] = refs[i].fields[name]
					}
					flats, refs = append(flats, NewRecord(pairs...)), append(refs, ref)
					j = len(flats) - 1
				}
				checkAgainstModel(t, pool, rng, flats[i], refs[i], flats[j], refs[j])
			}
			if t.Failed() {
				t.Fatalf("pass %d (table full: %v), step %d", pass, full, step)
			}
			if len(flats) > 64 {
				k := rng.IntN(len(flats))
				flats, refs = slices.Delete(flats, k, k+1), slices.Delete(refs, k, k+1)
			}
		}
	}
}

func checkAgainstModel(t *testing.T, pool []string, rng *rand.Rand, a Record, ra refRecord, b Record, rb refRecord) {
	t.Helper()
	if a.Len() != len(ra.names) || !slices.Equal(a.Names(), ra.names) {
		t.Errorf("Names() = %v, model %v", a.Names(), ra.names)
	}
	for _, name := range pool {
		v, ok := a.Get(name)
		rv, rok := ra.fields[name]
		if ok != rok || (ok && !v.Equal(rv)) {
			t.Errorf("Get(%s) = %v, %v; model %v, %v", name, v, ok, rv, rok)
		}
		if !a.Field(name).Equal(ra.field(name)) {
			t.Errorf("Field(%s) = %v, model %v", name, a.Field(name), ra.field(name))
		}
		var wantInt int64
		var wantFloat float64
		switch v := ra.field(name).(type) {
		case Int:
			wantInt, wantFloat = int64(v), float64(v)
		case Float:
			wantInt, wantFloat = int64(v), float64(v)
		}
		if got := a.Int(name); got != wantInt {
			t.Errorf("Int(%s) = %d, model %d", name, got, wantInt)
		}
		if got := a.Float(name); got != wantFloat {
			t.Errorf("Float(%s) = %v, model %v", name, got, wantFloat)
		}
	}
	fields := make([]string, rng.IntN(5))
	for i := range fields {
		fields[i] = pool[rng.IntN(len(pool))]
	}
	if got, want := a.Key(fields...), ra.key(fields...); got != want {
		t.Errorf("Key(%v) = %q, model %q", fields, got, want)
	}
	if got, want := string(a.AppendKey([]byte("pre|"), fields...)), "pre|"+ra.key(fields...); got != want {
		t.Errorf("AppendKey(%v) = %q, model %q", fields, got, want)
	}
	if got, want := a.String(), ra.String(); got != want {
		t.Errorf("String() = %q, model %q", got, want)
	}
	if got, want := a.Equal(b), ra.equal(rb); got != want {
		t.Errorf("Equal(%v, %v) = %v, model %v", a, b, got, want)
	}
	if got, want := Compare(a, b), strings.Compare(ra.canonical(), rb.canonical()); got != want {
		t.Errorf("Compare(%v, %v) = %d, model %d", a, b, got, want)
	}
	enc := AppendBinary(nil, a)
	if want := ra.binary(); string(enc) != string(want) {
		t.Errorf("AppendBinary(%v) = %x, model %x", a, enc, want)
	}
	back, n, err := DecodeBinary(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeBinary(%x) = %v, %d, %v", enc, back, n, err)
	}
	if br := back.(Record); !br.Equal(a) || br.String() != a.String() {
		t.Errorf("binary round trip of %v = %v", a, br)
	}
}

// TestInternTableBoundedUnderDecode decodes 100k records whose field names
// never repeat, as a misbehaving bridge peer could send, and checks that the
// intern table stops at its bound while every record still decodes
// correctly, and that a schema interned earlier is still shared after.
func TestInternTableBoundedUnderDecode(t *testing.T) {
	resetInternTable(t)
	shared := NewRecord("carID", Int(1), "speed", Int(2))
	rng := rand.New(rand.NewPCG(100_000, 38))
	for i := 0; i < 100_000; i++ {
		name := fmt.Sprintf("%016x", rng.Uint64())
		frame := binary.AppendUvarint([]byte{binRecord, 1}, uint64(len(name)))
		frame = append(append(frame, name...), binInt, 2)
		v, _, err := DecodeBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		if r := v.(Record); r.Len() != 1 || r.Int(name) != 1 {
			t.Fatalf("decoded %v, want {%s: 1}", r, name)
		}
	}
	if got := internedCount(); got != internMax {
		t.Errorf("intern table holds %d schemas after 100k distinct ones, want its bound %d", got, internMax)
	}
	v, _, err := DecodeBinary(AppendBinary(nil, shared))
	if err != nil {
		t.Fatal(err)
	}
	if v.(Record).s != shared.s {
		t.Error("a schema interned before the table filled is no longer shared")
	}
}

// TestConcurrentNewRecordSharesSchemas builds records of overlapping name
// lists on several goroutines (the thread-based and parallel directors do)
// and checks every list ends with one shared schema. Run it under -race.
func TestConcurrentNewRecordSharesSchemas(t *testing.T) {
	resetInternTable(t)
	lists := [][]string{{"a"}, {"a", "b"}, {"b", "a"}, {"x", "y", "z"}}
	const workers, each = 8, 2000
	got := make([][]Record, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				names := lists[(w+i)%len(lists)]
				pairs := make([]any, 0, 2*len(names))
				for _, n := range names {
					pairs = append(pairs, n, Int(int64(i)))
				}
				r := NewRecord(pairs...).With("w", Int(int64(w)))
				got[w] = append(got[w], r.Without("w"))
			}
		}()
	}
	wg.Wait()
	byNames := map[string]*schema{}
	for w, rs := range got {
		for i, r := range rs {
			names := lists[(w+i)%len(lists)]
			if !slices.Equal(r.Names(), names) || r.Int(names[0]) != int64(i) {
				t.Fatalf("worker %d record %d = %v, want names %v", w, i, r, names)
			}
			k := strings.Join(names, ",")
			if s, ok := byNames[k]; ok && s != r.s {
				t.Fatalf("names %v have two schemas", names)
			}
			byNames[k] = r.s
		}
	}
}
