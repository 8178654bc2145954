// Package event implements CONFLuEnCE's timing components: timestamped,
// wave-stamped event objects (CWEvents) and per-actor timekeepers.
//
// A wave is the set of internal events associated with one external event.
// The external event's wave-tag is its timestamp t; if processing an event
// with wave-tag t produces n events, they are tagged t.1 … t.n and the last
// one carries the last-of-wave marker. Sub-waves nest: processing t.3 into m
// events yields t.3.1 … t.3.m. Downstream actors use the tags to synchronize
// all events belonging to a single wave (wave-based windows).
package event

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/value"
)

// globalSeq provides engine-wide arrival sequence numbers, used to break
// timestamp ties deterministically.
var globalSeq atomic.Uint64

// nextSeq returns a fresh monotonically increasing sequence number.
func nextSeq() uint64 { return globalSeq.Add(1) }

// WaveTag identifies the position of an event inside a wave hierarchy.
type WaveTag struct {
	// Root identifies the wave: the external event's timestamp in
	// nanoseconds since the epoch.
	Root int64
	// RootSeq disambiguates distinct external events with equal timestamps.
	RootSeq uint64
	// Path holds the serial numbers attached at each nesting level; an
	// external event has an empty path.
	Path []int
	// Last marks the final event of its (sub-)wave.
	Last bool
}

// Child returns the tag for the i-th (1-based) of n events produced while
// processing an event carrying tag w. It panics if i is out of range.
func (w WaveTag) Child(i, n int) WaveTag {
	if i < 1 || i > n {
		panic(fmt.Sprintf("event: Child(%d, %d) out of range", i, n))
	}
	path := make([]int, len(w.Path)+1)
	copy(path, w.Path)
	path[len(w.Path)] = i
	return WaveTag{Root: w.Root, RootSeq: w.RootSeq, Path: path, Last: i == n}
}

// SameWave reports whether two tags belong to the same wave (same external
// event).
func (w WaveTag) SameWave(o WaveTag) bool {
	return w.Root == o.Root && w.RootSeq == o.RootSeq
}

// Depth returns the nesting depth: 0 for an external event.
func (w WaveTag) Depth() int { return len(w.Path) }

// AncestorOf reports whether w is a proper ancestor of o in the wave
// hierarchy.
func (w WaveTag) AncestorOf(o WaveTag) bool {
	if !w.SameWave(o) || len(w.Path) >= len(o.Path) {
		return false
	}
	for i, p := range w.Path {
		if o.Path[i] != p {
			return false
		}
	}
	return true
}

// SameEvent reports whether two tags identify the same event: same wave
// and identical path.
func (w WaveTag) SameEvent(o WaveTag) bool {
	if !w.SameWave(o) || len(w.Path) != len(o.Path) {
		return false
	}
	for i, p := range w.Path {
		if o.Path[i] != p {
			return false
		}
	}
	return true
}

// Compare orders tags by wave (root timestamp, then root sequence) and then
// lexicographically by path. It returns -1, 0 or +1.
func (w WaveTag) Compare(o WaveTag) int {
	switch {
	case w.Root < o.Root:
		return -1
	case w.Root > o.Root:
		return 1
	case w.RootSeq < o.RootSeq:
		return -1
	case w.RootSeq > o.RootSeq:
		return 1
	}
	n := len(w.Path)
	if len(o.Path) < n {
		n = len(o.Path)
	}
	for i := 0; i < n; i++ {
		switch {
		case w.Path[i] < o.Path[i]:
			return -1
		case w.Path[i] > o.Path[i]:
			return 1
		}
	}
	switch {
	case len(w.Path) < len(o.Path):
		return -1
	case len(w.Path) > len(o.Path):
		return 1
	default:
		return 0
	}
}

// String renders the tag as t<root>.<p1>.<p2>…, with a trailing * when the
// event is the last of its wave, e.g. "t42.3.1*".
func (w WaveTag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d", w.Root)
	for _, p := range w.Path {
		fmt.Fprintf(&b, ".%d", p)
	}
	if w.Last {
		b.WriteByte('*')
	}
	return b.String()
}

// Event is a CWEvent: a token wrapped with its source timestamp and
// wave-tag. Events are created by Timekeepers, never directly.
type Event struct {
	// Token is the payload.
	Token value.Value
	// Time is the event time: the timestamp of the external event that
	// started the wave this event belongs to. Response time is measured
	// against it.
	Time time.Time
	// Wave is the event's wave-tag.
	Wave WaveTag
	// Seq is the engine-wide arrival sequence number, used to order events
	// with equal timestamps deterministically.
	Seq uint64

	// poolable marks events allocated through a Pool; only those may be
	// recycled.
	poolable bool
	// pinned marks events that escaped exclusive single-edge ownership
	// (retained by a window operator, fanned out to multiple destinations,
	// or re-emitted); pinned events are never recycled. Typed atomic: on a
	// fan-out edge every destination's consumer pins independently, so
	// concurrent idempotent Pins are expected, and the type rules out a
	// plain read. The pool's zeroing literal assignment stays legal (the
	// zeroing site owns the event exclusively).
	pinned atomic.Uint32
}

// Pin marks the event as retained beyond its delivery edge, excluding it
// from recycling permanently. Pinning is one-way and idempotent, and may
// happen concurrently from the consumers of a fan-out edge; it must happen
// before the pinning owner lets go of the event.
//
//confvet:hotpath
func (e *Event) Pin() { e.pinned.Store(1) }

// Recyclable reports whether the event may be returned to its pool: it was
// pool-allocated and never pinned.
func (e *Event) Recyclable() bool { return e.poolable && e.pinned.Load() == 0 }

// Compare orders events by time, then wave-tag, then sequence.
func (e *Event) Compare(o *Event) int {
	switch {
	case e.Time.Before(o.Time):
		return -1
	case e.Time.After(o.Time):
		return 1
	}
	if c := e.Wave.Compare(o.Wave); c != 0 {
		return c
	}
	switch {
	case e.Seq < o.Seq:
		return -1
	case e.Seq > o.Seq:
		return 1
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (e *Event) String() string {
	return fmt.Sprintf("Event(%s @%s %s)", e.Token, e.Time.Format("15:04:05.000"), e.Wave)
}

// Timekeeper stamps tokens into events for one actor, as dictated by the
// director. External sources call External; internal actors are wrapped in
// BeginFiring/EndFiring by their director, and every token produced during
// the firing is stamped as a child of the consumed event's wave.
//
// A Timekeeper is not safe for concurrent use; each actor owns one, and an
// actor fires from a single goroutine at a time.
type Timekeeper struct {
	// current is the event being processed by the in-progress firing, or
	// nil outside a firing (source actors).
	current *Event
	// produced collects the events stamped during the in-progress firing so
	// EndFiring can assign child indices and the last-of-wave marker.
	produced []*Event
	firing   bool
	// pool, when set, recycles Event objects through the director's shared
	// free-list instead of allocating per stamp.
	pool *Pool
	// arena is the append-only chunk backing wave-tag paths of depth ≥ 2.
	// Chunks are immutable once written (a full chunk is abandoned to the
	// events pointing into it and a fresh one allocated), so downstream
	// actors may hold the tag slices indefinitely.
	arena []int
}

// NewTimekeeper returns a timekeeper for one actor.
func NewTimekeeper() *Timekeeper { return &Timekeeper{} }

// SetPool routes the timekeeper's event allocation through the director's
// shared pool. Call before the first firing.
func (tk *Timekeeper) SetPool(p *Pool) { tk.pool = p }

// newEvent allocates one event, recycled when a pool is attached.
func (tk *Timekeeper) newEvent() *Event {
	if tk.pool != nil {
		return tk.pool.Get()
	}
	return &Event{}
}

// External stamps a token arriving from outside the engine with timestamp
// ts, starting a new wave.
func (tk *Timekeeper) External(tok value.Value, ts time.Time) *Event {
	return &Event{
		Token: tok,
		Time:  ts,
		Wave:  WaveTag{Root: ts.UnixNano(), RootSeq: nextSeq()},
		Seq:   nextSeq(),
	}
}

// BeginFiring records the event the actor is about to process. Tokens
// stamped before EndFiring become members of in's wave. A nil in (an actor
// fired by a timeout, with no triggering event) makes Stamp behave like
// External with the given fallback timestamp at EndFiring time.
func (tk *Timekeeper) BeginFiring(in *Event) {
	tk.current = in
	tk.produced = tk.produced[:0]
	tk.firing = true
}

// Stamp wraps a token produced during the current firing. The event's child
// index and last-of-wave marker are finalized by EndFiring.
func (tk *Timekeeper) Stamp(tok value.Value, fallback time.Time) *Event {
	if !tk.firing {
		// Stamping outside a firing: treat as external.
		return tk.External(tok, fallback)
	}
	ev := tk.newEvent()
	ev.Token = tok
	ev.Seq = nextSeq()
	if tk.current != nil {
		ev.Time = tk.current.Time
	} else {
		ev.Time = fallback
		ev.Wave = WaveTag{Root: fallback.UnixNano(), RootSeq: nextSeq()}
	}
	// The staged-firing buffer is not a retaining escape: EndFiring hands
	// every staged event to exactly one delivery edge, whose consumer
	// releases or pins it, and produced is reset at the next BeginFiring.
	tk.produced = append(tk.produced, ev)
	return ev
}

// FinalizeFiring finalizes the wave-tags of the events stamped since
// BeginFiring (1-based child indices, last-of-wave marker on the final
// event) without copying: it reports how many events were stamped. This is
// the allocation-free hot path for callers (like FireContext) that already
// hold the stamped event pointers.
func (tk *Timekeeper) FinalizeFiring() int {
	if !tk.firing {
		return 0
	}
	tk.firing = false
	n := len(tk.produced)
	if tk.current != nil && n > 0 {
		parent := tk.current.Wave
		if len(parent.Path) == 0 {
			// Depth-1 children (the overwhelmingly common case: an external
			// event processed by the first actor of the pipeline) intern
			// their paths: child i of any wave is the one-element slice
			// canon[i-1:i:i] of the immutable canonical ascending array, so
			// stamping allocates nothing and tags of the same child index
			// are pointer-equal across waves.
			canon := canonChildren(n)
			for i, ev := range tk.produced {
				ev.Wave = WaveTag{Root: parent.Root, RootSeq: parent.RootSeq, Path: canon[i : i+1 : i+1], Last: i+1 == n}
			}
		} else {
			// Deeper paths carry per-wave prefixes and cannot be interned;
			// they are carved out of the timekeeper's append-only arena, so
			// the per-firing allocation amortizes to one chunk per ~4k ints.
			// Each path is sliced with a hard capacity so a later append on
			// one tag cannot overwrite its neighbor.
			depth := len(parent.Path) + 1
			backing := tk.pathBacking(n * depth)
			for i, ev := range tk.produced {
				path := backing[i*depth : (i+1)*depth : (i+1)*depth]
				copy(path, parent.Path)
				path[depth-1] = i + 1
				ev.Wave = WaveTag{Root: parent.Root, RootSeq: parent.RootSeq, Path: path, Last: i+1 == n}
			}
		}
	}
	tk.current = nil
	return n
}

// arenaChunk is the wave-tag arena granularity: one allocation per this
// many path ints on the deep-path slow path.
const arenaChunk = 4096

// pathBacking carves n ints out of the timekeeper's arena, starting a fresh
// chunk when the current one cannot hold them. The returned slice has hard
// capacity n. Written arena ints are never reused or rewritten: the events
// holding them may outlive the timekeeper's interest, so a full chunk is
// abandoned to its tags rather than recycled.
func (tk *Timekeeper) pathBacking(n int) []int {
	if len(tk.arena)+n > cap(tk.arena) {
		size := arenaChunk
		if n > size {
			size = n
		}
		tk.arena = make([]int, 0, size)
	}
	l := len(tk.arena)
	tk.arena = tk.arena[:l+n]
	return tk.arena[l : l+n : l+n]
}

// canon holds the canonical ascending child-index array shared by every
// depth-1 wave-tag in the engine: canon[i] == i+1, so the path of child i
// (1-based) is canon[i-1:i:i]. The array only ever grows by atomic
// replacement with a longer copy; a published array is immutable, keeping
// the tags that point into it valid (and pointer-equal) forever.
var canon atomic.Pointer[[]int]

// canonChildren returns a canonical array covering child indices 1…n.
func canonChildren(n int) []int {
	if p := canon.Load(); p != nil && len(*p) >= n {
		return *p
	}
	return growCanon(n)
}

// growCanon is canonChildren's refill path: build a larger ascending array
// and publish it, racing benignly with other growers.
func growCanon(n int) []int {
	size := 1024
	for size < n {
		size <<= 1
	}
	fresh := make([]int, size)
	for i := range fresh {
		fresh[i] = i + 1
	}
	for {
		cur := canon.Load()
		if cur != nil && len(*cur) >= n {
			return *cur
		}
		if canon.CompareAndSwap(cur, &fresh) {
			return fresh
		}
	}
}

// EndFiring finalizes the wave-tags of the events stamped since BeginFiring
// (1-based child indices, last-of-wave marker on the final event) and
// returns them in production order. The returned slice is the caller's to
// keep.
func (tk *Timekeeper) EndFiring() []*Event {
	if !tk.firing {
		return nil
	}
	firing := tk.produced
	tk.FinalizeFiring()
	out := make([]*Event, len(firing))
	copy(out, firing)
	tk.produced = tk.produced[:0]
	return out
}

// Reset abandons any in-progress firing and returns the timekeeper to a
// like-new state (keeping the produced buffer's capacity). Pooled fire
// contexts call it before reuse, so a firing torn down by a panic cannot
// leak a half-open wave into the next firing.
func (tk *Timekeeper) Reset() {
	tk.current = nil
	tk.produced = tk.produced[:0]
	tk.firing = false
}
