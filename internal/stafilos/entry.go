// Package stafilos implements STAFiLOS, the STreAm FLOw Scheduling for
// Continuous Workflows framework of the paper: a Scheduled CWF (SCWF)
// director that is schedule-independent, a TM Windowed Receiver that routes
// produced windows to the scheduler's per-actor ready queues, and an
// abstract scheduler base that concrete policies (internal/sched) extend.
package stafilos

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/window"
)

// State is an actor's scheduling state (Section 3 of the paper).
type State int

const (
	// Inactive means the actor currently has no events to process.
	Inactive State = iota
	// Active means the actor can be considered for firing in the current
	// iteration.
	Active
	// Waiting means the actor is waiting for something to happen within
	// the scheduler (e.g. re-quantification) before it can run.
	Waiting
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Inactive:
		return "INACTIVE"
	case Active:
		return "ACTIVE"
	case Waiting:
		return "WAITING"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ReadyItem is one window ready to be propagated to an actor's input port
// when the actor is scheduled for execution.
type ReadyItem struct {
	Actor model.Actor
	Port  *model.Port
	Win   *window.Window
	// Enqueued is the engine time the window became ready (zero when the
	// producer did not stamp it); the directors report the ready→firing gap
	// as scheduler queue wait.
	Enqueued time.Time
	seq      uint64
}

// Entry is the scheduler's bookkeeping for one actor: its ready-event
// queue (sorted by timestamp), its state, and the policy fields the
// implemented schedulers use (static priority, quantum, dynamic priority).
//
// Concurrency: the per-actor firing state is sharded onto the entry itself
// so parallel workers never need a global engine lock. The ready queue and
// next-period buffer are guarded by the entry's own mutex (qmu); the firing
// flag is an atomic claimed via TryFire/EndFire. The scheduler-owned fields
// (State, Quantum, DynPriority, FiredThisIteration, queue positions) are
// guarded by the owning scheduler's lock.
type Entry struct {
	Actor  model.Actor
	Source bool
	State  State

	// Priority is the designer-assigned priority (QBS; lower = higher).
	Priority int
	// Quantum is the remaining execution allowance (QBS/RR).
	Quantum time.Duration
	// DynPriority is the runtime-computed priority (RB's Pr(A) = S_A/C_A).
	DynPriority float64
	// FiredThisIteration marks sources that already ran in the current
	// director iteration / period.
	FiredThisIteration bool

	// stats is the actor's statistics shard and ctx, on the one-thread driver
	// only, its firing context (the parallel driver pools contexts per
	// worker instead). Both are resolved once by the director's set-up, so a
	// firing looks nothing up by name.
	stats *stats.Entry
	ctx   *model.FireContext

	// firing marks the actor as currently executing on a worker. It is the
	// model invariant "an actor never fires concurrently with itself": a
	// worker owns the actor's windows and state from a successful TryFire
	// until EndFire.
	firing atomic.Bool

	// qmu guards queue and buffer: receivers push ready windows from any
	// worker while the claiming worker pops.
	qmu sync.Mutex
	// queue holds the actor's ready items ordered by window timestamp.
	queue itemHeap
	// buffer holds items deferred to the next period (RB).
	buffer []ReadyItem

	// heapIndex is the entry's position in the active/waiting queue, -1
	// when in neither.
	heapIndex int
	// enqueueSeq orders entries that became active at the same priority
	// (FIFO tie-break and round-robin order).
	enqueueSeq uint64
}

// TryFire claims the actor for one firing; it fails if the actor is
// already firing on another worker.
func (e *Entry) TryFire() bool { return e.firing.CompareAndSwap(false, true) }

// EndFire releases the firing claim. Callers release only after the
// firing's emissions are delivered and its bookkeeping recorded.
func (e *Entry) EndFire() { e.firing.Store(false) }

// Firing reports whether the actor is currently executing on a worker.
func (e *Entry) Firing() bool { return e.firing.Load() }

// QueueLen returns the number of ready items waiting for the actor.
func (e *Entry) QueueLen() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// BufferLen returns the number of items parked for the next period.
func (e *Entry) BufferLen() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.buffer)
}

// HasEvents reports whether the actor has ready items in its queue.
func (e *Entry) HasEvents() bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue) > 0
}

// Push adds a ready item to the actor's sorted event queue.
func (e *Entry) Push(item ReadyItem) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.queue.push(item)
}

// PushBatch adds a whole receiver drain to the sorted event queue under one
// queue-lock acquisition.
func (e *Entry) PushBatch(items []ReadyItem) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for _, it := range items {
		e.queue.push(it)
	}
}

// Pop removes and returns the oldest ready item.
func (e *Entry) Pop() (ReadyItem, bool) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if len(e.queue) == 0 {
		return ReadyItem{}, false
	}
	return e.queue.pop(), true
}

// PopBatch moves up to max ready items (oldest first) into buf under one
// queue-lock acquisition; the parallel director fires them as one claimed
// batch so claim/broadcast/policy overhead is paid once per batch.
func (e *Entry) PopBatch(buf []ReadyItem, max int) []ReadyItem {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for len(buf) < max && len(e.queue) > 0 {
		buf = append(buf, e.queue.pop())
	}
	return buf
}

// Peek returns the oldest ready item without removing it.
func (e *Entry) Peek() (ReadyItem, bool) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if len(e.queue) == 0 {
		return ReadyItem{}, false
	}
	return e.queue[0], true
}

// Buffer parks an item for the next period (RB's next-period buffer).
func (e *Entry) Buffer(item ReadyItem) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.buffer = append(e.buffer, item)
}

// BufferBatch parks a whole receiver drain for the next period under one
// queue-lock acquisition.
func (e *Entry) BufferBatch(items []ReadyItem) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.buffer = append(e.buffer, items...)
}

// ReleaseBuffer moves every buffered item into the ready queue and returns
// how many moved.
func (e *Entry) ReleaseBuffer() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	n := len(e.buffer)
	for i, it := range e.buffer {
		e.queue.push(it)
		e.buffer[i] = ReadyItem{}
	}
	e.buffer = e.buffer[:0]
	return n
}

// itemHeap orders ready items by window timestamp, breaking ties by
// enqueue sequence ("queues of events sorted by timestamp"). It is a
// hand-rolled binary heap rather than a container/heap adapter: the
// interface-based heap boxes every ReadyItem pushed or popped into an
// `any`, which costs a heap allocation per event on the delivery path.
type itemHeap []ReadyItem

func (h itemHeap) less(i, j int) bool {
	if !h[i].Win.Time.Equal(h[j].Win.Time) {
		return h[i].Win.Time.Before(h[j].Win.Time)
	}
	return h[i].seq < h[j].seq
}

//confvet:hotpath
func (h *itemHeap) push(it ReadyItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//confvet:hotpath
func (h *itemHeap) pop() ReadyItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	it := s[n]
	s[n] = ReadyItem{}
	s = s[:n]
	*h = s
	// Sift the swapped-up element back down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return it
}

// Comparator orders entries in the active/waiting priority queues. It is
// the QueueComparator of the paper: provided by the scheduler
// implementation, it may use designer priorities or dynamic runtime
// statistics.
type Comparator func(a, b *Entry) bool

// EntryQueue is a priority queue of actor entries sorted by a Comparator.
type EntryQueue struct {
	entries []*Entry
	less    Comparator
}

// NewEntryQueue returns an empty queue ordered by less.
func NewEntryQueue(less Comparator) *EntryQueue {
	return &EntryQueue{less: less}
}

// Len returns the number of queued entries.
func (q *EntryQueue) Len() int { return len(q.entries) }

// Push inserts an entry.
func (q *EntryQueue) Push(e *Entry) { heap.Push((*entryHeap)(q), e) }

// Pop removes and returns the highest-priority entry, or nil.
func (q *EntryQueue) Pop() *Entry {
	if len(q.entries) == 0 {
		return nil
	}
	return heap.Pop((*entryHeap)(q)).(*Entry)
}

// Peek returns the highest-priority entry without removing it, or nil.
func (q *EntryQueue) Peek() *Entry {
	if len(q.entries) == 0 {
		return nil
	}
	return q.entries[0]
}

// Remove deletes e from the queue if present.
func (q *EntryQueue) Remove(e *Entry) {
	if e.heapIndex >= 0 && e.heapIndex < len(q.entries) && q.entries[e.heapIndex] == e {
		heap.Remove((*entryHeap)(q), e.heapIndex)
	}
}

// Contains reports whether e is in the queue.
func (q *EntryQueue) Contains(e *Entry) bool {
	return e.heapIndex >= 0 && e.heapIndex < len(q.entries) && q.entries[e.heapIndex] == e
}

// Fix re-establishes heap order after e's priority fields changed.
func (q *EntryQueue) Fix(e *Entry) {
	if q.Contains(e) {
		heap.Fix((*entryHeap)(q), e.heapIndex)
	}
}

// Drain removes and returns all entries (heap order not guaranteed).
func (q *EntryQueue) Drain() []*Entry {
	out := make([]*Entry, 0, len(q.entries))
	for _, e := range q.entries {
		e.heapIndex = -1
		out = append(out, e)
	}
	q.entries = q.entries[:0]
	return out
}

// entryHeap adapts EntryQueue to container/heap.
type entryHeap EntryQueue

func (h *entryHeap) Len() int { return len(h.entries) }
func (h *entryHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if h.less(a, b) {
		return true
	}
	if h.less(b, a) {
		return false
	}
	return a.enqueueSeq < b.enqueueSeq // FIFO among equals
}
func (h *entryHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.entries[i].heapIndex = i
	h.entries[j].heapIndex = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*Entry)
	e.heapIndex = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *entryHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIndex = -1
	h.entries = old[:n-1]
	return e
}
