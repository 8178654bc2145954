package value

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
)

// A schema is the immutable, ordered field-name list a Record's values are
// laid out by. Records built with the same names in the same order share one
// interned schema, so a record is its schema pointer plus one value slice.
//
// The intern table is a fixed open-addressed array of atomic pointers: a hit
// is a probe of atomic loads and takes no lock, which matters because the
// thread-based and parallel directors build records on several goroutines.
// Only a miss takes the table's mutex. Interning is bounded: at most
// internMax schemas, each of at most internFields names totalling
// internBytes. Past that a schema is private — correct, just not shared — so
// a bridge peer sending ever-new field names cannot grow memory without
// limit.
const (
	// scanFields is the widest schema whose name lookup is a linear scan;
	// wider schemas carry a name → position map.
	scanFields = 16

	internSlots  = 8192
	internMax    = internSlots / 2 // keeps probe runs short and always ends one at an empty slot
	internFields = 64
	internBytes  = 1024

	// maxChildren bounds how many With/Without results one interned schema
	// remembers.
	maxChildren = 8
)

type schema struct {
	names    []string       // len == cap: Names hands it out, and an append must not write into it
	index    map[string]int // name → position; nil when len(names) <= scanFields
	hash     uint64
	interned bool
	children atomic.Pointer[[]child] // With/Without cache, copy-on-write; interned schemas only
}

// child is one remembered derivation: the schema its parent becomes with
// name toggled — appended by With when absent, removed by Without when
// present. One parent never has name both ways, so name alone is the key.
type child struct {
	name string
	s    *schema
}

var table struct {
	slots [internSlots]atomic.Pointer[schema]
	full  atomic.Bool
	mu    sync.Mutex // serialises inserts and child-cache writes
	n     int        // interned schemas; guarded by mu
}

// hashSeed randomises the name hash per process, so a peer cannot precompute
// field names that collide into one long probe run.
var hashSeed = rand.Uint64()

// fieldName is what names arrive as: strings from NewRecord and With, byte
// runs of a frame from the binary decoder.
type fieldName interface{ ~string | ~[]byte }

// hashNames is FNV-1a over the names, each terminated by a zero byte, from
// the per-process seed.
func hashNames[S fieldName](names []S) uint64 {
	h := hashSeed
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			h = (h ^ uint64(n[i])) * 0x100000001b3
		}
		h *= 0x100000001b3
	}
	return h
}

// schemaOf returns the schema of names: the interned one when it exists,
// else a new schema, interned while the table has room. It reports a
// duplicate name as an error.
func schemaOf[S fieldName](names []S) (*schema, error) {
	h := hashNames(names)
	if s := lookup(h, names); s != nil {
		return s, nil
	}
	s := &schema{names: make([]string, len(names)), hash: h}
	bytes := 0
	for i, n := range names {
		s.names[i] = string(n)
		bytes += len(n)
	}
	if len(names) > scanFields {
		s.index = make(map[string]int, len(names))
		for i, n := range s.names {
			if _, dup := s.index[n]; dup {
				return nil, fmt.Errorf("duplicate record field %q", n)
			}
			s.index[n] = i
		}
	} else {
		for i, n := range s.names {
			if slices.Contains(s.names[:i], n) {
				return nil, fmt.Errorf("duplicate record field %q", n)
			}
		}
	}
	if len(names) > internFields || bytes > internBytes || table.full.Load() {
		return s, nil
	}
	return intern(s), nil
}

// lookup probes the intern table for names without locking.
func lookup[S fieldName](h uint64, names []S) *schema {
	for i := h % internSlots; ; i = (i + 1) % internSlots {
		s := table.slots[i].Load()
		if s == nil {
			return nil
		}
		if s.hash == h && sameNames(s.names, names) {
			return s
		}
	}
}

func sameNames[S fieldName](have []string, want []S) bool {
	if len(have) != len(want) {
		return false
	}
	for i, n := range want {
		if have[i] != string(n) {
			return false
		}
	}
	return true
}

// intern publishes s, or returns the schema another goroutine published for
// the same names first. Past the bound it returns s unshared.
func intern(s *schema) *schema {
	table.mu.Lock()
	defer table.mu.Unlock()
	if t := lookup(s.hash, s.names); t != nil {
		return t
	}
	if table.n >= internMax {
		table.full.Store(true)
		return s
	}
	i := s.hash % internSlots
	for table.slots[i].Load() != nil {
		i = (i + 1) % internSlots
	}
	s.interned = true
	table.slots[i].Store(s)
	table.n++
	return s
}

// find returns the position of name, or -1. A nil schema is the zero
// Record's: it has no fields.
func (s *schema) find(name string) int {
	switch {
	case s == nil:
		return -1
	case s.index != nil:
		if i, ok := s.index[name]; ok {
			return i
		}
		return -1
	}
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (s *schema) fieldNames() []string {
	if s == nil {
		return nil
	}
	return s.names
}

// derive returns the schema with name removed when s has it, else
// appended, from the cache when s is interned.
func (s *schema) derive(name string) *schema {
	cache := s != nil && s.interned
	if cache {
		if kids := s.children.Load(); kids != nil {
			for _, c := range *kids {
				if c.name == name {
					return c.s
				}
			}
		}
	}
	var names []string
	if i := s.find(name); i >= 0 {
		names = slices.Delete(slices.Clone(s.names), i, i+1)
	} else {
		names = append(slices.Clip(s.fieldNames()), name)
	}
	d, err := schemaOf(names)
	if err != nil {
		panic("value: derived schema: " + err.Error()) // unreachable: toggling one name cannot duplicate one
	}
	if cache {
		table.mu.Lock()
		old := s.children.Load()
		if old == nil || len(*old) < maxChildren {
			var kids []child
			if old != nil {
				kids = append(kids, *old...)
			}
			kids = append(kids, child{name: name, s: d})
			s.children.Store(&kids)
		}
		table.mu.Unlock()
	}
	return d
}
