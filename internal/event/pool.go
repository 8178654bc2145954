package event

import "repro/internal/ring"

// Pool is the CWEvent free-list behind the zero-alloc firing loop: a
// lock-free MPMC ring of recycled Event objects shared by every timekeeper
// of a director. It deliberately is not a sync.Pool — the GC empties
// sync.Pool victim caches at every cycle, which would re-introduce a steady
// trickle of allocations and break the 0 allocs/op firing-loop gate.
//
// Ownership protocol (see DESIGN.md, "Zero-alloc hot path"): an event
// produced through a pooled timekeeper is poolable; it travels exactly one
// edge and is recycled by that edge's consumer once the firing that consumed
// it has been broadcast. Any site that lets an event outlive its edge —
// insertion into a window operator, fan-out to more than one destination,
// re-emission via PutEvent — pins it, and a pinned event is never recycled
// (the GC reclaims it as before).
type Pool struct {
	q *ring.MPMC[*Event]
}

// DirectorPoolCap is the capacity of the one pool every director keeps:
// enough to cover every edge's ring plus the in-flight firing batches of a
// mid-sized workflow without pinning an unbounded amount of memory.
const DirectorPoolCap = 8192

// NewPool returns a pool holding at most capacity idle events.
func NewPool(capacity int) *Pool {
	return &Pool{q: ring.NewMPMC[*Event](capacity)}
}

// Get returns a zeroed poolable event, recycling an idle one when possible.
// The caller owns the result: release it exactly once or pin it.
//
//confvet:hotpath
func (p *Pool) Get() *Event {
	if ev, ok := p.q.TryPop(); ok {
		return ev
	}
	return newPoolable()
}

// newPoolable is Get's refill path, kept out of Get's body: it
// runs only while the pool warms up or when more events are in flight than
// the pool holds.
func newPoolable() *Event {
	return &Event{poolable: true}
}

// Release returns ev to the pool if it is recyclable: allocated through
// this pool and never pinned. It zeroes the event first so a recycled
// object cannot leak a stale token, timestamp or wave-tag into its next
// life. Releasing nil, foreign or pinned events is a no-op, and when the
// pool is full the event is simply left to the GC.
//
//confvet:hotpath
func (p *Pool) Release(ev *Event) {
	if ev == nil || !ev.Recyclable() {
		return
	}
	*ev = Event{poolable: true}
	p.q.TryPush(ev) // a full pool leaves the event to the GC
}

// Idle reports how many recycled events the pool currently holds (tests).
func (p *Pool) Idle() int { return p.q.Len() }
