package value

import "strings"

// TypeSet is a set of token kinds, used for static channel type resolution:
// an output port declares the kinds it may emit, an input port the kinds it
// accepts, and a channel is well-typed when the sets intersect. The zero
// value is Any — an undeclared port neither raises nor propagates mismatch
// diagnostics, so typing is adoptable incrementally, port by port.
type TypeSet uint16

// Any accepts or produces every kind (the zero value).
const Any TypeSet = 0

// TypeOf builds the set containing exactly the given kinds.
func TypeOf(kinds ...Kind) TypeSet {
	var s TypeSet
	for _, k := range kinds {
		s |= 1 << uint(k)
	}
	return s
}

// IsAny reports whether the set is unconstrained.
func (s TypeSet) IsAny() bool { return s == Any }

// Has reports whether the set contains k (Any contains everything).
func (s TypeSet) Has(k Kind) bool {
	return s.IsAny() || s&(1<<uint(k)) != 0
}

// Compatible reports whether a channel from a producer typed s to a
// consumer typed t can carry at least one kind.
func (s TypeSet) Compatible(t TypeSet) bool {
	return s.IsAny() || t.IsAny() || s&t != 0
}

// String renders "any" or a "|"-joined kind list ("int|float").
func (s TypeSet) String() string {
	if s.IsAny() {
		return "any"
	}
	var parts []string
	for k := KindNil; k <= KindRecord; k++ {
		if s&(1<<uint(k)) != 0 {
			parts = append(parts, k.String())
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}
