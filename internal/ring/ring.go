// Package ring implements the bounded lock-free queues and the
// spin-then-yield-then-park wait strategy behind the engine's hot path.
//
// Director→receiver edges are the highest-frequency communication channel in
// the engine: every emitted event crosses exactly one. The mutex+condvar
// receiver queues pay a lock acquisition (and, under contention, a futex
// round-trip) per delivery; the rings here replace that with one or two
// atomic operations per event:
//
//   - SPSC is the fast path for edges the workflow graph proves
//     single-writer (one upstream actor goroutine): a classic cached-cursor
//     ring where push and pop are each a plain slot store plus one atomic
//     cursor publish.
//   - MPMC is the fallback for fan-in edges (and the event free-list): a
//     Vyukov bounded queue whose write cursor is claimed by CAS and whose
//     per-slot sequence numbers carry the publish/consume handshake.
//
// Both are bounded and never block: TryPush reports a full ring and TryPop
// an empty one, and callers decide the overflow policy (receivers spill to a
// mutex-guarded overflow list so a push never waits — see window.Inbox).
//
// Memory ordering relies on Go's sync/atomic operations being sequentially
// consistent: a slot write happens-before the cursor/sequence store that
// publishes it, and the consumer's load of that cursor happens-before its
// slot read.
package ring

import "sync/atomic"

// pad is a cache-line spacer: producer- and consumer-owned cursors live on
// their own lines so the two sides do not false-share.
type pad [64]byte

// Queue is the contract shared by both rings: bounded, non-blocking,
// lock-free push and pop.
type Queue[T any] interface {
	// TryPush enqueues v, reporting false when the ring is full.
	TryPush(v T) bool
	// TryPop dequeues the oldest element, reporting false when empty.
	// When T is a pooled event type, the caller takes ownership of the
	// popped value.
	TryPop() (T, bool)
	// Len approximates the number of queued elements.
	Len() int
	// Cap returns the fixed capacity.
	Cap() int
}

// ceilPow2 rounds n up to the next power of two (minimum 2), so the rings
// can mask instead of mod.
func ceilPow2(n int) int {
	c := 2
	for c < n {
		c <<= 1
	}
	return c
}

// SPSC is a bounded single-producer single-consumer ring. Exactly one
// goroutine may push and exactly one may pop; Len is safe from anywhere.
//
// Each side keeps a cached view of the other's cursor (headCache/tailCache)
// so the common case touches only its own cache line: the producer re-reads
// the consumer's published cursor only when the ring looks full, the
// consumer re-reads the producer's only when it looks empty.
type SPSC[T any] struct {
	_ pad
	// head is the consumer's published cursor: the next slot to read.
	head atomic.Uint64
	// consHead/tailCache are consumer-private.
	consHead  uint64
	tailCache uint64
	_         pad
	// tail is the producer's published cursor: the next slot to write.
	tail atomic.Uint64
	// prodTail/headCache are producer-private.
	prodTail  uint64
	headCache uint64
	_         pad
	mask      uint64
	buf       []T
}

// NewSPSC returns an SPSC ring holding at least capacity elements (rounded
// up to a power of two).
func NewSPSC[T any](capacity int) *SPSC[T] {
	c := ceilPow2(capacity)
	return &SPSC[T]{mask: uint64(c - 1), buf: make([]T, c)}
}

// TryPush implements Queue. Producer goroutine only.
//
//confvet:hotpath
func (q *SPSC[T]) TryPush(v T) bool {
	if q.prodTail-q.headCache >= uint64(len(q.buf)) {
		q.headCache = q.head.Load()
		if q.prodTail-q.headCache >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[q.prodTail&q.mask] = v
	q.prodTail++
	q.tail.Store(q.prodTail)
	return true
}

// TryPop implements Queue. Consumer goroutine only. The vacated slot is
// zeroed so the ring does not retain popped elements.
//
//confvet:hotpath
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	if q.consHead == q.tailCache {
		q.tailCache = q.tail.Load()
		if q.consHead == q.tailCache {
			return zero, false
		}
	}
	i := q.consHead & q.mask
	v := q.buf[i]
	q.buf[i] = zero
	q.consHead++
	q.head.Store(q.consHead)
	return v, true
}

// Len implements Queue.
func (q *SPSC[T]) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h { // racing loads; the queue is momentarily in between
		return 0
	}
	return int(t - h)
}

// Cap implements Queue.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// mpmcSlot pairs an element with its Vyukov sequence number. seq == pos
// means the slot is free for the producer claiming position pos; seq ==
// pos+1 means it holds the element pushed at pos.
type mpmcSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded multi-producer multi-consumer ring (Vyukov's bounded
// queue): producers claim the write cursor by CAS, then publish their slot
// by storing its sequence number; consumers mirror the protocol on the read
// cursor. Receivers use it as the MPSC fallback on fan-in edges, and the
// event pool uses it as a free-list.
type MPMC[T any] struct {
	_    pad
	head atomic.Uint64
	_    pad
	tail atomic.Uint64
	_    pad
	mask uint64
	buf  []mpmcSlot[T]
}

// NewMPMC returns an MPMC ring holding at least capacity elements (rounded
// up to a power of two).
func NewMPMC[T any](capacity int) *MPMC[T] {
	c := ceilPow2(capacity)
	q := &MPMC[T]{mask: uint64(c - 1), buf: make([]mpmcSlot[T], c)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// TryPush implements Queue. Safe from any number of goroutines.
//
//confvet:hotpath
func (q *MPMC[T]) TryPush(v T) bool {
	for {
		pos := q.tail.Load()
		s := &q.buf[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The slot still holds the element from one lap ago: full.
			return false
		}
		// seq > pos: another producer won the slot; reload and retry.
	}
}

// TryPop implements Queue. Safe from any number of goroutines. The vacated
// slot is zeroed so the ring does not retain popped elements.
//
//confvet:hotpath
func (q *MPMC[T]) TryPop() (T, bool) {
	var zero T
	for {
		pos := q.head.Load()
		s := &q.buf[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if q.head.CompareAndSwap(pos, pos+1) {
				v := s.val
				s.val = zero
				s.seq.Store(pos + uint64(len(q.buf)))
				return v, true
			}
		case seq < pos+1:
			// The slot has not been published for this lap: empty (or the
			// publishing producer is mid-store; callers treat both as empty).
			return zero, false
		}
		// seq > pos+1: another consumer won the slot; reload and retry.
	}
}

// Len implements Queue.
func (q *MPMC[T]) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// Cap implements Queue.
func (q *MPMC[T]) Cap() int { return len(q.buf) }
