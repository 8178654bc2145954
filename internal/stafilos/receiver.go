package stafilos

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/window"
)

// TMReceiver is the TM Windowed Receiver: the receiver the SCWF directors
// install on every input port. It extends the Windowed Receiver of the
// thread-based engine with the TM domain's scheduler interaction — when an
// upstream actor broadcasts an event, the receiver evaluates the window
// semantics and enqueues any produced window at the owning actor's ready
// queue in the scheduler. Timed windows additionally register
// window-timeout deadlines, which the director polls so a timed window is
// produced even before an event from the next window arrives to close it.
//
// Put/PutBatch never block on a receiver lock.
//
//   - Passthrough ports (the default, and the hot path) have no shared
//     window state at all: each event is wrapped into a single-event window
//     drawn from a lock-free shell free-list and enqueued directly at the
//     scheduler. The consuming worker returns the shell — and, when the
//     pinning protocol permits, the event — through Recycle once the firing
//     that consumed it has been broadcast.
//   - Windowed ports push into a window.Inbox (lock-free ring, sticky
//     overflow, consumer-owned window operator — see there) and then elect
//     its consumer: whoever wins the draining CAS (the pushing worker, or
//     the coordinator for timed windows) feeds the backlog through the
//     operator and enqueues the produced windows, then clears the flag and
//     re-checks the backlog — a producer whose push raced the drain either
//     wins the next CAS or is covered by the drainer's re-check, so no
//     event strands.
type TMReceiver struct {
	port  *model.Port
	owner model.Actor
	// passthrough marks default single-event window semantics.
	passthrough bool
	clk         clock.Clock
	// entry is the owning actor's statistics shard, resolved once at
	// construction so hot-path arrivals skip the registry lookup.
	entry *stats.Entry
	// enqueue delivers one produced window to the scheduler; enqueueBatch,
	// when wired (SetBatchEnqueue), delivers a whole drain in one call.
	enqueue      func(ReadyItem)
	enqueueBatch func([]ReadyItem)
	// pool, when set, receives recyclable events back at Recycle.
	pool *event.Pool
	// expireTo optionally receives expired events (the expired-items queue
	// wired to another activity).
	expireTo func([]*event.Event)

	// shells is the passthrough window free-list (MPMC: producers pop,
	// the consuming worker pushes recycled shells back).
	shells *ring.MPMC[*window.Window]
	// pbusy serializes the passthrough batch scratch below; a producer that
	// loses the CAS falls back to item-wise enqueue instead of waiting.
	pbusy  atomic.Bool
	pitems []ReadyItem

	// in is the windowed ingestion core; passthrough ports leave it zero.
	in window.Inbox
	// draining is the consumer-election flag: its holder is in's consumer
	// and owns the two scratch buffers.
	draining atomic.Bool
	dwins    []*window.Window
	ditems   []ReadyItem
}

// NewTMReceiver builds a receiver for port applying the port's window spec.
// enqueue delivers produced windows to the scheduler. Windowed ports start
// on the always-safe MPMC ring; directors that can prove a single upstream
// writer call MarkSingleWriter before any traffic flows.
func NewTMReceiver(port *model.Port, clk clock.Clock, st *stats.Registry, enqueue func(ReadyItem)) *TMReceiver {
	r := &TMReceiver{
		port:        port,
		owner:       port.Owner(),
		passthrough: port.Spec().IsPassthrough(),
		clk:         clk,
		enqueue:     enqueue,
	}
	if r.passthrough {
		r.shells = ring.NewMPMC[*window.Window](window.ShellCap)
	} else {
		r.in.Init(port.Spec(), true, 0)
	}
	if st != nil && port.Owner() != nil {
		r.entry = st.Entry(port.Owner().Name())
	}
	return r
}

// SetExpiredHandler wires the expired-items queue to a consumer. Call
// before traffic flows.
func (r *TMReceiver) SetExpiredHandler(f func([]*event.Event)) { r.expireTo = f }

// SetBatchEnqueue wires the scheduler's batch delivery (BatchEnqueuer), so
// a drain or a passthrough broadcast pays the policy lock once. Call before
// traffic flows.
func (r *TMReceiver) SetBatchEnqueue(f func([]ReadyItem)) { r.enqueueBatch = f }

// SetPool enables event recycling at Recycle. Call before traffic flows.
func (r *TMReceiver) SetPool(p *event.Pool) { r.pool = p }

// MarkSingleWriter swaps the windowed ingestion ring to the cheaper SPSC
// variant. Legal only when at most one producer delivers at a time with
// happens-before between successive producers: the sequential director
// (one thread) and parallel ports fed by exactly one upstream actor (its
// firing flag serializes producers, and EndFire→TryFire hands the ring
// cursors over with release/acquire ordering). Call before traffic flows.
func (r *TMReceiver) MarkSingleWriter() {
	if !r.passthrough {
		r.in.Init(r.port.Spec(), false, 0)
	}
}

// Put implements model.Receiver: passthrough events are wrapped and handed
// to the scheduler directly; windowed events take a wait-free inbox push
// and then a drain attempt (the CAS winner runs the operator).
//
//confvet:hotpath
func (r *TMReceiver) Put(ev *event.Event) {
	now := r.clk.Now()
	if r.entry != nil {
		r.entry.RecordArrival(1, now)
	}
	if r.passthrough {
		r.enqueue(NewItemAt(r.owner, r.port, window.Wrap(r.shell(), ev), now))
		return
	}
	r.in.Push(ev)
	r.drain(now)
}

// PutBatch implements model.BatchReceiver: the whole emission set records
// one arrival update and — when the scheduler supports batch delivery —
// one policy-lock acquisition.
//
//confvet:hotpath
func (r *TMReceiver) PutBatch(evs []*event.Event) {
	if len(evs) == 0 {
		return
	}
	now := r.clk.Now()
	if r.entry != nil {
		r.entry.RecordArrival(len(evs), now)
	}
	if r.passthrough {
		r.putBatchPass(evs, now)
		return
	}
	r.in.PushBatch(evs)
	r.drain(now)
}

// putBatchPass wraps and enqueues a passthrough batch. The CAS winner
// builds the scheduler batch in the receiver's reusable scratch; a
// concurrent producer on the same port (fan-in broadcast race) falls back
// to item-wise enqueue rather than wait.
//
//confvet:hotpath
func (r *TMReceiver) putBatchPass(evs []*event.Event, now time.Time) {
	if r.enqueueBatch != nil && r.pbusy.CompareAndSwap(false, true) {
		items := r.pitems[:0]
		for _, ev := range evs {
			items = append(items, NewItemAt(r.owner, r.port, window.Wrap(r.shell(), ev), now))
		}
		r.enqueueBatch(items)
		r.pitems = items[:0]
		r.pbusy.Store(false)
		return
	}
	for _, ev := range evs {
		r.enqueue(NewItemAt(r.owner, r.port, window.Wrap(r.shell(), ev), now))
	}
}

// shell pops the passthrough shell free-list; nil when it is empty
// (warm-up, or shells retained past Recycle).
func (r *TMReceiver) shell() *window.Window {
	w, _ := r.shells.TryPop()
	return w
}

// drain elects a consumer for the windowed backlog. The clear-then-recheck
// loop is the no-lost-event argument: a producer counts its push before it
// gets here (see window.Inbox), so when it loses the CAS its count precedes
// the failed CAS, which precedes the holder's Store(false), which precedes
// the holder's HasRaw re-check — the holder always re-observes it, and the
// counted event is already poppable.
//
//confvet:hotpath
func (r *TMReceiver) drain(now time.Time) {
	for r.in.HasRaw() && r.draining.CompareAndSwap(false, true) {
		ws, exp := r.in.Ingest(now, math.MaxInt, r.dwins[:0])
		r.handOff(ws, exp, now)
	}
}

// OnTime forces out windows whose formation timeout passed and returns how
// many were produced. When a drain is in progress it does nothing — the
// active drainer republishes the deadline, so the caller's next poll
// retries.
func (r *TMReceiver) OnTime(now time.Time) int {
	if r.passthrough || !r.draining.CompareAndSwap(false, true) {
		return 0
	}
	ws, exp := r.in.Force(now, r.dwins[:0])
	n := len(ws)
	r.handOff(ws, exp, now)
	// Serve any raw push that lost its CAS to this OnTime section.
	r.drain(now)
	return n
}

// handOff ends a draining section: the produced windows go to the scheduler
// (one batch call when the policy supports it), and only then does the flag
// clear — so a cleared flag implies everything the section produced is
// visible at the scheduler, next to the deadline the inbox republished.
// Expired events are handed over after the flag clears: their consumer is
// typically another receiver, and drain sections must never nest on
// delivery (self-routing re-enters harmlessly — the CAS fails and this
// drainer's caller re-checks).
func (r *TMReceiver) handOff(ws []*window.Window, exp []*event.Event, now time.Time) {
	items := r.ditems[:0]
	for _, w := range ws {
		items = append(items, NewItemAt(r.owner, r.port, w, now))
	}
	if r.enqueueBatch != nil && len(items) > 0 {
		r.enqueueBatch(items)
	} else {
		for _, it := range items {
			r.enqueue(it)
		}
	}
	clear(ws)
	r.dwins, r.ditems = ws[:0], items[:0]
	if r.expireTo == nil || len(exp) == 0 {
		r.draining.Store(false)
		return
	}
	// exp is the operator's queue, which the next drainer reuses.
	exp = append([]*event.Event(nil), exp...)
	r.draining.Store(false)
	r.expireTo(exp)
}

// Recycle takes back a window this receiver built. The consuming director
// calls it once per popped ReadyItem, after the firing's emissions have
// been broadcast (the recycle point of the ownership protocol), from
// whichever goroutine ran the firing. A passthrough shell returns to the
// shell free-list and its event — when still recyclable under the pinning
// protocol — to the event pool; an operator-built window returns to the
// inbox's free list with its member pointers cleared (its events were
// pinned at insert and stay with the GC). Recycling a window twice, or one
// not produced by this receiver, is a protocol violation.
//
//confvet:hotpath
func (r *TMReceiver) Recycle(w *window.Window) {
	if w == nil {
		return
	}
	if !r.passthrough {
		r.in.Recycle(w)
		return
	}
	if len(w.Events) != 1 || w.Events[0] == nil {
		return
	}
	ev := w.Events[0]
	w.Events[0] = nil
	if r.pool != nil {
		r.pool.Release(ev)
	}
	window.PutShell(r.shells, w)
}

// Pending reports whether the receiver may still deliver work to the
// scheduler on its own: raw windowed backlog, or a drain in progress whose
// enqueues have not landed yet. Quiescence detection reads it before the
// scheduler's own HasWork (see ParallelDirector.drained). Passthrough
// ports enqueue synchronously inside Put, so they are never pending.
func (r *TMReceiver) Pending() bool {
	return r.in.HasRaw() || r.draining.Load()
}

// Depth implements model.DepthReporter: raw backlog plus the events
// currently buffered in the receiver's open windows.
func (r *TMReceiver) Depth() int { return r.in.Depth() }

// NextDeadline reports the earliest pending window-timeout deadline, as
// last published by a drainer.
func (r *TMReceiver) NextDeadline() (time.Time, bool) { return r.in.NextDeadline() }
