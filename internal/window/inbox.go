package window

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/ring"
)

// InboxCap is the default capacity of an inbox's lock-free ring; beyond it
// producers spill to the overflow list. 1024 events absorbs ~16 firing
// batches of backlog before any mutex is touched.
const InboxCap = 1024

// ShellCap is the capacity of a receiver's window-shell free list: the
// passthrough wrappers' and the operator's alike.
const ShellCap = 256

// Inbox is the ingestion core shared by every receiver that sits on a
// workflow edge: the paper's Windowed Receiver without the notification.
// Producers deliver through a bounded lock-free ring and never block inside
// it; one consumer at a time pops raw events or feeds them through the
// window operator it owns. What differs between receivers — waking a parked
// actor thread (director.RingReceiver) or electing a drainer and enqueueing
// at the scheduler (stafilos.TMReceiver) — is the hand-off built on top,
// and it is the hand-off that guarantees the single consumer.
//
// Overflow protocol: cyclic workflows would deadlock if an upstream firing
// could block on a full downstream ring while that ring's consumer waits
// on the cycle, so a push never waits. (Back-pressure is the caller's: a
// PNCWF producer waits before firing while Backlog is high and its
// consumer progresses, and the overflow list is its artificial-deadlock
// escape.) A producer that finds the ring full sets ofActive and appends
// to the mutex-guarded overflow list; the flag is sticky, so it keeps
// overflowing until the consumer has found the ring dry, swapped the list
// out and cleared the flag. A producer that read the flag clear just before
// it was set may still be pushing to the ring, and its ring event is older
// than its overflow events. So the swap, under the lock and before the flag
// clears, counts the ring slots claimed so far (ringFirst), and the
// consumer serves those before the swapped-out list (pend), and pend before
// the ring again. Each producer's stream stays FIFO: its ring-era events
// precede its overflow-era events, and it returns to the ring only after
// its overflow backlog has been taken.
//
// Counting protocol: a producer counts an event in arrivals only after the
// push made it visible, and notifies its consumer only after counting. So
// HasRaw never promises an event a pop cannot find yet (no consumer spins
// on a descheduled producer), and a consumer that reads HasRaw false after
// arming its wait is covered by the notification that follows the count.
// A consumer may pop an event before it is counted; taken then runs ahead
// of arrivals until the producer catches up, which reads as "no backlog".
//
// Operator state the consumer owns is published through atomics after
// every Ingest and Force; Depth and NextDeadline never touch the operator.
// The zero Inbox is an empty one that nobody can push to.
type Inbox struct {
	q ring.Queue[*event.Event]

	// ofMu guards overflow; ofActive is the producers' routing flag.
	ofMu     sync.Mutex
	ofActive atomic.Bool
	overflow []*event.Event

	// Consumer-owned: the window operator (nil for passthrough specs), the
	// ring slots claimed before the last overflow swap and not yet served,
	// and the swapped-out overflow being served after them.
	op        *Operator
	ringFirst int
	pend      []*event.Event
	pendHead  int

	// shells is the operator's window free list (MPMC: the consumer pops
	// when it builds a window, whoever fired the window pushes it back at
	// Recycle). Nil for passthrough specs.
	shells *ring.MPMC[*Window]

	arrivals    atomic.Int64 // events producers made visible
	taken       atomic.Int64 // events the consumer popped
	opPending   atomic.Int64 // events buffered inside the operator
	pubDeadline atomic.Int64 // earliest operator deadline, unixnano (0 = none)
}

// Init readies the inbox for spec with a ring of the given capacity (<= 0
// selects InboxCap). Pass multiProducer false only when the workflow graph
// proves a single upstream writer at a time; then Push and PushBatch are
// two entry points of one goroutine and never race on the SPSC ring.
// Calling Init again before any traffic replaces ring and operator.
func (in *Inbox) Init(spec Spec, multiProducer bool, capacity int) {
	if capacity <= 0 {
		capacity = InboxCap
	}
	if multiProducer {
		in.q = ring.NewMPMC[*event.Event](capacity)
	} else {
		in.q = ring.NewSPSC[*event.Event](capacity)
	}
	in.op = nil
	if !spec.IsPassthrough() {
		if in.shells == nil {
			in.shells = ring.NewMPMC[*Window](ShellCap)
		}
		in.op = New(spec)
		in.op.shells = in.shells
	}
}

// Push delivers one event: lock-free ring push with the overflow escape
// hatch, then the arrival count.
//
//confvet:hotpath
func (in *Inbox) Push(ev *event.Event) {
	if in.ofActive.Load() || !in.q.TryPush(ev) {
		in.putSlow(ev)
	}
	in.arrivals.Add(1)
}

// PushBatch delivers a whole emission set under one arrival update.
//
//confvet:hotpath
func (in *Inbox) PushBatch(evs []*event.Event) {
	for _, ev := range evs {
		if in.ofActive.Load() || !in.q.TryPush(ev) {
			in.putSlow(ev)
		}
	}
	in.arrivals.Add(int64(len(evs)))
}

// putSlow spills one event to the overflow list. Setting ofActive under the
// lock keeps the flag and the list coherent: a producer that observed the
// flag keeps appending here (preserving its own FIFO order) until the
// consumer swaps the list out and clears the flag.
func (in *Inbox) putSlow(ev *event.Event) {
	in.ofMu.Lock()
	in.ofActive.Store(true)
	in.overflow = append(in.overflow, ev)
	in.ofMu.Unlock()
}

// Pop returns the oldest raw event: the ring slots claimed before the last
// overflow swap, then the swapped-out overflow, then the ring, then a fresh
// overflow swap (the order the overflow protocol needs). Consumer only.
//
//confvet:hotpath
func (in *Inbox) Pop() (*event.Event, bool) {
	for {
		if in.ringFirst > 0 {
			return in.popClaimed(), true
		}
		if in.pendHead < len(in.pend) {
			ev := in.pend[in.pendHead]
			in.pend[in.pendHead] = nil
			in.pendHead++
			in.taken.Add(1)
			return ev, true
		}
		if ev, ok := in.q.TryPop(); ok {
			in.taken.Add(1)
			return ev, true
		}
		if !in.ofActive.Load() || !in.takeOverflow() {
			return nil, false
		}
	}
}

// popClaimed serves one of the ring slots takeOverflow counted. An MPMC
// slot can be claimed but still mid-store, which TryPop reports as empty;
// its producer finishes the store without waiting on anything, so the
// consumer yields until it has.
func (in *Inbox) popClaimed() *event.Event {
	for {
		if ev, ok := in.q.TryPop(); ok {
			in.ringFirst--
			in.taken.Add(1)
			return ev
		}
		runtime.Gosched()
	}
}

// takeOverflow swaps the overflow list out and reports whether the swap left
// anything to serve. The ring length is read while the flag is still set: a
// slot claimed by then belongs to a producer that read the flag clear before
// it was set, so that event is older than its producer's overflow. The
// previous pend backing array becomes the next overflow, so the two buffers
// ping-pong without allocation at steady state.
func (in *Inbox) takeOverflow() bool {
	in.ofMu.Lock()
	in.pend, in.overflow = in.overflow, in.pend[:0]
	in.ringFirst = in.q.Len()
	in.ofActive.Store(false)
	in.ofMu.Unlock()
	in.pendHead = 0
	return in.ringFirst > 0 || len(in.pend) > 0
}

// Ingest feeds up to max raw events through the window operator at clock
// time now. It returns buf with the produced windows appended, and the
// events that expired (they can no longer contribute to any window; the
// caller routes or drops them before the next Ingest or Force, which reuse
// the slice). Consumer only, windowed specs only.
//
//confvet:hotpath
func (in *Inbox) Ingest(now time.Time, max int, buf []*Window) ([]*Window, []*event.Event) {
	n := 0
	for ; n < max; n++ {
		ev, ok := in.Pop()
		if !ok {
			break
		}
		buf = append(buf, in.op.Put(ev, now)...)
	}
	if n == 0 {
		return buf, nil
	}
	in.publishOp()
	return buf, in.op.DrainExpired()
}

// Force appends to buf the windows whose formation timeout has passed at
// clock time now, and returns the events that expired with them (valid as
// Ingest's are). Consumer only, windowed specs only.
func (in *Inbox) Force(now time.Time, buf []*Window) ([]*Window, []*event.Event) {
	buf = append(buf, in.op.OnTime(now)...)
	in.publishOp()
	return buf, in.op.DrainExpired()
}

// publishOp refreshes the monitor-visible operator state. It runs before
// the consumer gives up its turn, so whoever observes the turn released
// also observes a fresh deadline.
func (in *Inbox) publishOp() {
	in.opPending.Store(int64(in.op.Pending()))
	if dl, ok := in.op.NextDeadline(); ok {
		in.pubDeadline.Store(dl.UnixNano())
	} else {
		in.pubDeadline.Store(0)
	}
}

// HasRaw reports whether counted raw events remain unpopped (ring, overflow
// or swapped-out pend).
func (in *Inbox) HasRaw() bool {
	return in.arrivals.Load() > in.taken.Load()
}

// Backlog reports the raw backlog — events counted in and not yet popped,
// 0 while taken runs ahead — and the taken count it was computed from.
// Events buffered in open windows are not part of it: they may never drain.
func (in *Inbox) Backlog() (raw, taken int64) {
	taken = in.taken.Load()
	raw = in.arrivals.Load() - taken
	if raw < 0 {
		raw = 0
	}
	return raw, taken
}

// Depth reports the raw backlog plus the events buffered in open windows.
func (in *Inbox) Depth() int {
	raw, _ := in.Backlog()
	return int(raw + in.opPending.Load())
}

// NextDeadline reports the earliest pending window-formation deadline, as
// last published by the consumer.
func (in *Inbox) NextDeadline() (time.Time, bool) {
	ns := in.pubDeadline.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Recycle takes back a window the operator produced, once its firing is
// over (the receiver's recycle point): the member pointers are cleared —
// the events were pinned at insert and stay with the GC — and the shell,
// with its Events backing, goes to the free list the operator builds its
// next windows from. Recycling a window twice, or one this inbox did not
// produce, is a protocol violation. Windowed specs only; safe from any
// goroutine.
//
//confvet:hotpath
func (in *Inbox) Recycle(w *Window) {
	clear(w.Events)
	w.Events = w.Events[:0]
	PutShell(in.shells, w)
}

// PutShell returns a consumed window shell to a receiver's free list. A
// full list leaves the surplus shell to the GC.
//
//confvet:hotpath
func PutShell(free *ring.MPMC[*Window], w *Window) {
	free.TryPush(w)
}

// Wrap turns one passthrough event into a single-event window, reusing
// shell when the receiver's free-list supplied one. The event is not
// pinned: it travels exactly one edge inside the window, and ownership
// moves into the shell — the consuming director hands the shell back
// through the receiver's Recycle, which is the event's actual release
// point, so from the caller's perspective Wrap consumes it.
//
//confvet:hotpath
func Wrap(shell *Window, ev *event.Event) *Window {
	if shell == nil {
		shell = newShell()
	}
	shell.Events[0] = ev
	shell.Time = ev.Time
	shell.Wave = ev.Wave
	return shell
}

// newShell is Wrap's refill path.
func newShell() *Window {
	return &Window{Events: make([]*event.Event, 1)}
}
