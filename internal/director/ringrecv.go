package director

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/ring"
	"repro/internal/window"
)

// ringFreeWindows sizes the passthrough window free-list: two full firing
// batches, so the consumer can hold one batch while the next wraps.
const ringFreeWindows = 2 * fireBatchMax

// ingestMax bounds the raw events one GetBatch pass feeds through the window
// operator before handing out what they produced.
const ingestMax = 4 * fireBatchMax

// backlogMark is the raw backlog at which a PNCWF producer waits for an
// out-edge's consumer before it fires again. A firing batch admitted below
// it always fits the ring, so the overflow list is left as the escape of a
// stalled wait.
const backlogMark = window.InboxCap - fireBatchMax

// stallBound is how long a producer waits on an edge whose consumer takes
// nothing before it gives up waiting. The consumer is then blocked on the
// producer itself (a cycle, or a multi-input actor pulling another port),
// where only a growing buffer lets the workflow progress, or it has
// stopped for a cancellation, where the producer must get back to its own
// cancellation check. It spans three of the Go scheduler's 10 ms
// preemption slices, so a consumer that is runnable but descheduled takes
// again within it: at 5 ms, a back-pressured pipeline under the race
// detector at GOMAXPROCS=1 stalled often enough to miss the event pool on
// half its events.
const stallBound = 30 * time.Millisecond

// Test seams, nil outside tests. Each runs on a waiting goroutine just
// before it snapshots the generation it will park on: the window in which
// a missing re-check loses a wakeup.
var (
	testHookConsumerPark func()
	testHookProducerPark func()
)

// RingReceiver is the Windowed Receiver of the thread-based engine: a
// window.Inbox (lock-free ring, sticky overflow, consumer-owned window
// operator — see there for the ordering and counting protocols) plus this
// engine's hand-off. Producers push and Wake; the consuming actor thread
// spins, yields, then parks on the edge's Waiter, and forces due timed
// windows itself, as the paper's PNCWF threads do. Back-pressure runs the
// other way on a second Waiter: a producer facing a backlog at backlogMark
// parks on room before it fires (outEdge.wait), and the consumer wakes it
// after popping.
//
// Passthrough edges (the default, and the hot path) bypass the operator:
// each popped event is wrapped in a single-event window drawn from a fixed
// free-list, and Recycle returns both the window and (when permitted by the
// pinning protocol) the event.
//
// Equivalence with the mutex+condvar reference receiver (see
// TestRingReceiverEquivalence): per-producer delivery order, no loss, no
// duplication, identical window semantics.
type RingReceiver struct {
	in   window.Inbox
	wake *ring.Waiter
	room *ring.Waiter
	clk  clock.Clock
	pool *event.Pool // nil disables recycling

	passthrough bool

	// Consumer-owned state.
	ready readyQueue                      // operator-produced windows awaiting consumption
	free  [ringFreeWindows]*window.Window // passthrough window free-list
	freeN int
	one   []*window.Window // reused length-1 buffer behind Get

	// readyCount publishes ready.len() to the quiescence monitor.
	readyCount atomic.Int64
	// busy is true from the moment the consumer wakes until it parks or
	// exits: it covers the gap between popping an event and the director's
	// firing counter, so the quiescence monitor never declares an edge
	// drained while its consumer still holds work.
	busy   atomic.Bool
	closed atomic.Bool
	// parked counts producers registered to wait on room.
	parked atomic.Int32
}

// NewRingReceiver builds a receiver for the given window spec.
// multiProducer selects the MPMC ring; pass false only when the graph
// proves a single upstream writer goroutine. pool enables event recycling
// (may be nil); capacity <= 0 selects window.InboxCap.
func NewRingReceiver(spec window.Spec, clk clock.Clock, pool *event.Pool, multiProducer bool, capacity int) *RingReceiver {
	r := &RingReceiver{
		wake:        ring.NewWaiter(),
		room:        ring.NewWaiter(),
		clk:         clk,
		pool:        pool,
		passthrough: spec.IsPassthrough(),
		one:         make([]*window.Window, 0, 1),
	}
	r.in.Init(spec, multiProducer, capacity)
	return r
}

// Put implements model.Receiver: one inbox push, then one Wake (two atomics
// when nobody is parked).
//
//confvet:hotpath
func (r *RingReceiver) Put(ev *event.Event) {
	r.in.Push(ev)
	r.wake.Wake()
}

// PutBatch implements model.BatchReceiver: the whole emission set pays one
// arrival update and one wake.
//
//confvet:hotpath
func (r *RingReceiver) PutBatch(evs []*event.Event) {
	if len(evs) == 0 {
		return
	}
	r.in.PushBatch(evs)
	r.wake.Wake()
}

// shell pops the passthrough window free-list; nil when it is empty
// (warm-up, or windows pulled by a multi-input actor and never recycled).
func (r *RingReceiver) shell() *window.Window {
	if r.freeN == 0 {
		return nil
	}
	r.freeN--
	w := r.free[r.freeN]
	r.free[r.freeN] = nil
	return w
}

// Recycle takes back the windows handed out by the previous Get/GetBatch
// on this receiver: the consuming director calls it once the firing batch
// has been broadcast, which is the recycle point of the event ownership
// protocol. Passthrough events still recyclable (never pinned) go back to
// the pool and their shells to the fixed free-list; operator-built windows
// go back to the inbox's free list with their member pointers cleared.
// Recycling windows that did not come from this receiver's Get/GetBatch is
// a protocol violation.
//
//confvet:hotpath
func (r *RingReceiver) Recycle(ws []*window.Window) {
	if !r.passthrough {
		for _, w := range ws {
			r.in.Recycle(w)
		}
		return
	}
	for _, w := range ws {
		if len(w.Events) != 1 {
			continue
		}
		ev := w.Events[0]
		w.Events[0] = nil
		if r.pool != nil {
			r.pool.Release(ev)
		}
		if r.freeN < len(r.free) {
			r.free[r.freeN] = w
			r.freeN++
		}
	}
}

// GetBatch blocks (spin → yield → park) until at least one window is
// available, then hands out up to max windows appended to buf. It returns
// false when the receiver is closed and fully drained. Due timed windows
// are forced by the consuming thread itself. Consumer goroutine only.
//
//confvet:hotpath
func (r *RingReceiver) GetBatch(buf []*window.Window, max int) ([]*window.Window, bool) {
	r.busy.Store(true)
	for {
		if r.passthrough {
			for len(buf) < max {
				ev, ok := r.in.Pop()
				if !ok {
					break
				}
				buf = append(buf, window.Wrap(r.shell(), ev))
			}
		} else {
			r.ingest()
			for len(buf) < max && r.ready.len() > 0 {
				buf = append(buf, r.ready.pop())
				r.readyCount.Add(-1)
			}
		}
		if r.parked.Load() > 0 {
			// Every pop above moved taken before this load, so a producer
			// that registered and then read the old taken is seen here.
			r.room.Wake()
		}
		if len(buf) > 0 {
			// busy stays true: it hands the in-flight batch over to the
			// director's firing bookkeeping and clears only at the next park.
			return buf, true
		}
		if r.closed.Load() {
			r.busy.Store(false)
			return buf, false
		}
		if testHookConsumerPark != nil {
			testHookConsumerPark()
		}
		seen := r.wake.Gen()
		// Re-check after snapshotting the generation. A producer counts its
		// push before it Wakes (see window.Inbox), so an event this look
		// does not count yet is followed by a Wake that bumps the generation
		// past seen, and Wait cannot miss it (see ring.Waiter).
		if r.in.HasRaw() || r.closed.Load() {
			continue
		}
		r.busy.Store(false)
		r.wake.Wait(seen, r.parkBound())
		r.busy.Store(true)
	}
}

// Get blocks until one window is available (multi-input pullers). The
// puller is inside a firing, which the director already counts, so busy
// is not left latched: a port that is only ever pulled would otherwise
// read as pending forever after its last pull, and the run would never
// quiesce.
func (r *RingReceiver) Get() (*window.Window, bool) {
	ws, ok := r.GetBatch(r.one[:0], 1)
	r.busy.Store(false)
	r.one = ws[:0]
	if len(ws) > 0 {
		return ws[0], true
	}
	return nil, ok
}

// ingest feeds buffered raw events through the inbox's window operator and,
// when that leaves nothing to hand out, forces the timed windows that are
// due. Expired events are dropped: they were pinned at insert, so dropping
// never races recycling.
//
//confvet:hotpath
func (r *RingReceiver) ingest() {
	had := r.ready.len()
	now := r.clk.Now()
	r.ready.q, _ = r.in.Ingest(now, ingestMax, r.ready.q)
	if r.ready.len() == 0 {
		if dl, ok := r.in.NextDeadline(); ok && !dl.After(now) {
			r.ready.q, _ = r.in.Force(now, r.ready.q)
		}
	}
	r.readyCount.Add(int64(r.ready.len() - had))
}

// parkBound bounds a park by the operator's next formation deadline so the
// consuming thread wakes to force timed windows on its own.
func (r *RingReceiver) parkBound() time.Duration {
	dl, ok := r.in.NextDeadline()
	if !ok {
		return 0
	}
	d := dl.Sub(r.clk.Now())
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// Close wakes the consumer permanently; Get/GetBatch return false once
// everything buffered has been handed out.
func (r *RingReceiver) Close() {
	r.closed.Store(true)
	r.wake.Wake()
}

// Pending reports whether the edge still holds undelivered work: raw
// events not yet pulled, produced windows not yet handed out, or a
// consumer that is awake between a pop and its firing. Events buffered
// inside an open window do not count (they may never form a window); a
// pending formation deadline is reported by NextDeadline.
func (r *RingReceiver) Pending() bool {
	return r.in.HasRaw() || r.readyCount.Load() > 0 || r.busy.Load()
}

// Depth implements model.DepthReporter: raw backlog plus ready windows plus
// events buffered in open windows.
func (r *RingReceiver) Depth() int {
	return r.in.Depth() + int(r.readyCount.Load())
}

// NextDeadline reports the earliest pending window-formation deadline, as
// last published by the consumer.
func (r *RingReceiver) NextDeadline() (time.Time, bool) { return r.in.NextDeadline() }

// outEdge is one producer's view of one out-edge. est is a running estimate
// of the edge's raw backlog — the last read plus everything the producer
// emitted since — so the producer reads the consumer's counters only when
// the estimate reaches backlogMark.
type outEdge struct {
	r   *RingReceiver
	est int64
	// stalledAt is the consumer's taken count when a wait on this edge last
	// stalled (-1: never). Until the consumer moves past it the edge admits
	// without waiting: as in Parks' bounded scheduling, a buffer grows only
	// on an artificial deadlock.
	stalledAt int64

	// timer wakes a wait after stallBound; expired is set once it has
	// fired.
	timer   *time.Timer
	expired atomic.Bool
}

// wait holds the producer while the edge's raw backlog is at or above
// backlogMark and its consumer keeps taking. If the consumer takes nothing
// for stallBound the wait stalls: the producer fires anyway, and the sticky
// overflow absorbs what the ring cannot.
//
// Lost-wakeup freedom mirrors the consumer's: the producer registers in
// parked for the whole wait, and snapshots room's generation before each
// re-read of the backlog; the consumer moves taken (a sequentially
// consistent add in Pop) before it loads parked. If a re-read misses a pop,
// the consumer's load sees the registration and its Wake moves the
// generation past the snapshot.
func (e *outEdge) wait() {
	r := e.r
	raw, taken := r.in.Backlog()
	if raw < backlogMark || taken == e.stalledAt {
		e.est = raw
		return
	}
	if testHookProducerPark != nil {
		testHookProducerPark()
	}
	r.parked.Add(1)
	armed := false
	var since int64
	for {
		seen := r.room.Gen()
		if raw, taken = r.in.Backlog(); raw < backlogMark {
			break
		}
		if !armed {
			e.arm()
			armed, since = true, taken
		} else if e.expired.Load() {
			if taken == since {
				e.stalledAt = taken
				break
			}
			e.arm()
			since = taken
		}
		r.room.Wait(seen, 0)
	}
	r.parked.Add(-1)
	if armed {
		e.disarm()
	}
	e.est = raw
}

// arm starts the stall timer for one stallBound.
func (e *outEdge) arm() {
	e.expired.Store(false)
	if e.timer == nil {
		e.timer = time.AfterFunc(stallBound, e.expire)
		return
	}
	e.timer.Reset(stallBound)
}

// disarm stops the stall timer. A timer that already fired is waited out
// until its expiry has landed, so it cannot land after the next arm (its
// Wake may still follow, which is only a spurious wake-up).
func (e *outEdge) disarm() {
	if !e.timer.Stop() {
		for !e.expired.Load() {
			runtime.Gosched()
		}
	}
}

// expire is the stall timer's callback. It publishes the expiry before it
// wakes the wait, so the woken producer reads it.
func (e *outEdge) expire() {
	e.expired.Store(true)
	e.r.room.Wake()
}
