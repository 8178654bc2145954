package stafilos

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/window"
)

// Env is the framework environment handed to a scheduler at initialization:
// the workflow model, the engine clock, the runtime statistics module, and
// the designer-assigned actor priorities.
type Env struct {
	WF    *model.Workflow
	Clock clock.Clock
	Stats *stats.Registry
	// Priorities maps actor names to designer-assigned priorities (lower
	// is more urgent, as in the Linux scheduler QBS is based on).
	Priorities map[string]int
	// SourceInterval is the source scheduling interval: one source firing
	// is scheduled after this many internal actor firings (QBS; Table 3
	// uses 5).
	SourceInterval int
	// Obs is the optional introspection engine; nil means observability off
	// (every hook is nil-safe, so policies call it unconditionally).
	Obs *obs.Engine
}

// Priority returns the designer priority for an actor, defaulting to 20
// (the boundary value of Equation 1).
func (e *Env) Priority(name string) int {
	if p, ok := e.Priorities[name]; ok {
		return p
	}
	return 20
}

// Scheduler is a STAFiLOS scheduling policy. The SCWF director is
// schedule-independent and drives any implementation of this interface.
//
// The call pattern per director iteration is:
//
//	IterationBegin
//	for { e := NextActor(); if e == nil break; …fire…; ActorFired(e…) }
//	IterationEnd
//
// Enqueue is called whenever a TM Windowed Receiver produces a window,
// which can happen in the middle of a firing.
//
// Concurrency contract: implementations are safe for concurrent use —
// Enqueue, NextActor, Claim, ActorFired, HasWork and the iteration hooks may
// be called from parallel workers without any engine lock; each policy
// serializes its own bookkeeping internally (the Base mutex) with critical
// sections limited to heap and state updates.
type Scheduler interface {
	// Name identifies the policy ("QBS", "RR", "RB", …).
	Name() string
	// Init receives the environment; called once before execution.
	Init(env *Env) error
	// Register introduces an actor; source actors are flagged, letting the
	// policy treat them independently to regulate the flow of data coming
	// into the workflow.
	Register(a model.Actor, source bool) *Entry
	// Enqueue adds a ready window to its actor's event queue and
	// re-evaluates the actor's state.
	Enqueue(item ReadyItem)
	// NextActor returns the next actor to fire, or nil to end the current
	// director iteration.
	NextActor() *Entry
	// Claim is what the parallel SCWF director's workers call instead of
	// NextActor to pull their next firing directly, without a dispatcher
	// round-trip: it selects the next runnable actor in policy order,
	// skipping (and parking, where the policy keeps a ready queue) entries
	// currently firing on another worker, and marks the returned entry as
	// firing via TryFire — all under the policy's own lock, so concurrent
	// workers can never claim the same actor twice and the policy still
	// decides order. It returns nil when nothing is claimable right now —
	// either there is no work, or all work sits behind mid-firing actors.
	Claim() *Entry
	// ActorFired reports a completed firing and its cost so the policy can
	// account quanta and update states.
	ActorFired(e *Entry, cost time.Duration, produced int)
	// IterationBegin signals the start of a director iteration.
	IterationBegin()
	// IterationEnd signals the end of a director iteration; policies run
	// their maintenance here (re-quantification, queue swaps, priority
	// re-evaluation, period rollover).
	IterationEnd()
	// HasWork reports whether any actor has ready or buffered events.
	HasWork() bool
}

// ConcurrentScheduler is the name Claim's interface had while it was
// optional; benchmark/layers.go still asserts to it.
type ConcurrentScheduler = Scheduler

// BatchEnqueuer is an optional Scheduler extension: a policy that
// implements it accepts a whole receiver drain in one call, paying the
// policy lock and the actor-state re-evaluation once per batch instead of
// once per window. A batch delivered by a receiver always targets a single
// actor (the port's owner), but implementations tolerate mixed batches by
// grouping consecutive same-actor runs. The callee must not retain the
// slice — receivers reuse the backing array for the next drain. Every
// policy in internal/sched implements it.
type BatchEnqueuer interface {
	EnqueueBatch(items []ReadyItem)
}

var itemSeq atomic.Uint64

// NewItem builds a ReadyItem with a fresh arrival sequence number.
func NewItem(a model.Actor, p *model.Port, w *window.Window) ReadyItem {
	return ReadyItem{Actor: a, Port: p, Win: w, seq: itemSeq.Add(1)}
}

// NewItemAt builds a ReadyItem stamped with the engine time it became
// ready, so the directors can report scheduler queue wait. Receivers that
// already hold the clock reading use this instead of NewItem.
func NewItemAt(a model.Actor, p *model.Port, w *window.Window, at time.Time) ReadyItem {
	return ReadyItem{Actor: a, Port: p, Win: w, Enqueued: at, seq: itemSeq.Add(1)}
}

// Base implements the abstract scheduler of the paper: the actor list, the
// per-actor event queues sorted by timestamp, the actor-state map, and the
// two priority queues (active and waiting) sorted by a pluggable
// Comparator. Concrete schedulers embed *Base and provide the policy:
// state-transition rules, comparators, quantum accounting and source
// treatment.
//
// Concurrency: Mu is the policy lock. Concrete schedulers take it in every
// exported Scheduler method and call the unexported/helper layer with it
// held; Base helpers (SetState, ClaimRunnable, Register, …)
// assume the caller holds Mu. HasWork and TotalQueued lock Mu themselves —
// they are called by directors, never from inside a policy.
type Base struct {
	// Mu serializes all scheduler bookkeeping: queue membership, entry
	// states, quanta and priorities. Critical sections stay small (heap and
	// state updates only) so workers contend briefly even on hot paths.
	Mu sync.Mutex

	Env     *Env
	Entries []*Entry
	Sources []*Entry
	byActor map[string]*Entry

	// ActiveQ holds ACTIVE entries, WaitingQ holds WAITING entries.
	ActiveQ, WaitingQ *EntryQueue

	// InternalSinceSource counts internal firings since a source last
	// fired, for interval-based source scheduling.
	InternalSinceSource int

	seq uint64

	// claimScratch is ClaimRunnable's reusable parked-entry buffer; it is
	// only touched with Mu held.
	claimScratch []*Entry
}

// NewBase builds the abstract-scheduler state with the given comparator for
// both priority queues.
func NewBase(less Comparator) *Base {
	return &Base{
		byActor:  make(map[string]*Entry),
		ActiveQ:  NewEntryQueue(less),
		WaitingQ: NewEntryQueue(less),
	}
}

// Init stores the environment.
func (b *Base) Init(env *Env) error {
	b.Env = env
	return nil
}

// Register implements Scheduler.Register: it creates the entry, records the
// designer priority and classifies sources. Concrete schedulers wrap it in
// their locked Register; during a parallel run it must be called with Mu
// held.
func (b *Base) Register(a model.Actor, source bool) *Entry {
	if e, ok := b.byActor[a.Name()]; ok {
		return e
	}
	e := &Entry{Actor: a, Source: source, State: Inactive, heapIndex: -1}
	if b.Env != nil {
		e.Priority = b.Env.Priority(a.Name())
	}
	b.byActor[a.Name()] = e
	b.Entries = append(b.Entries, e)
	if source {
		b.Sources = append(b.Sources, e)
	}
	return e
}

// Entry returns the bookkeeping entry for an actor, or nil.
func (b *Base) Entry(a model.Actor) *Entry {
	if a == nil {
		return nil
	}
	return b.byActor[a.Name()]
}

// SetState transitions e between the scheduler states, maintaining the
// active/waiting priority queues: ACTIVE entries live in the active queue,
// WAITING entries in the waiting queue, INACTIVE entries in neither.
func (b *Base) SetState(e *Entry, s State) {
	if e.State == s {
		// Re-assert queue membership in case priority fields changed.
		switch s {
		case Active:
			if b.ActiveQ.Contains(e) {
				b.ActiveQ.Fix(e)
				return
			}
		case Waiting:
			if b.WaitingQ.Contains(e) {
				b.WaitingQ.Fix(e)
				return
			}
		default:
			return
		}
	}
	b.ActiveQ.Remove(e)
	b.WaitingQ.Remove(e)
	e.State = s
	switch s {
	case Active:
		b.seq++
		e.enqueueSeq = b.seq
		b.ActiveQ.Push(e)
	case Waiting:
		b.seq++
		e.enqueueSeq = b.seq
		b.WaitingQ.Push(e)
	}
}

// ClaimRunnable is the shared skip-busy claim loop behind every policy's
// Claim: it repeatedly asks next (the policy's NextActor logic) for the
// head entry, claims the first one not already firing, and parks busy heads
// out of the active queue meanwhile so independent actors deeper in the
// queue can still be co-scheduled. Parked entries are re-inserted before
// returning — their enqueue sequence is untouched, so policy order is
// preserved. Must be called with Mu held.
func (b *Base) ClaimRunnable(next func() *Entry) *Entry {
	o := b.Observer()
	parked := b.claimScratch[:0]
	var claimed *Entry
	for {
		e := next()
		if e == nil {
			break
		}
		if e.TryFire() {
			claimed = e
			break
		}
		// The head is mid-firing on another worker; data dependencies
		// forbid co-scheduling the same actor. Park it and look deeper,
		// unless the policy produced it outside the active queue (then
		// there is nothing to scan past).
		o.ParkObserved(e.Actor.Name())
		if !b.ActiveQ.Contains(e) {
			break
		}
		b.ActiveQ.Remove(e)
		parked = append(parked, e)
	}
	for _, p := range parked {
		b.ActiveQ.Push(p)
	}
	b.claimScratch = parked[:0]
	if claimed != nil {
		o.PickObserved(claimed.Actor.Name())
	}
	return claimed
}

// Observer returns the environment's introspection engine, or nil. The
// returned pointer is always safe to call hooks on.
func (b *Base) Observer() *obs.Engine {
	if b.Env == nil {
		return nil
	}
	return b.Env.Obs
}

// ActorQueueDepths yields every registered actor's ready-queue and
// next-period-buffer lengths; the introspection layer scrapes it into the
// per-actor backlog gauges. Safe during a parallel run: it takes only the
// per-entry queue locks, not the policy lock.
func (b *Base) ActorQueueDepths(yield func(actor string, ready, buffered int)) {
	b.Mu.Lock()
	entries := append([]*Entry(nil), b.Entries...)
	b.Mu.Unlock()
	for _, e := range entries {
		yield(e.Actor.Name(), e.QueueLen(), e.BufferLen())
	}
}

// HasWork reports whether any entry holds ready or buffered events, or a
// source is mid-iteration.
func (b *Base) HasWork() bool {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	for _, e := range b.Entries {
		if e.HasEvents() || e.BufferLen() > 0 {
			return true
		}
	}
	return false
}

// TotalQueued returns the total ready items across entries (diagnostics
// and backlog metrics).
func (b *Base) TotalQueued() int {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	n := 0
	for _, e := range b.Entries {
		n += e.QueueLen() + e.BufferLen()
	}
	return n
}

// IterationBegin provides the default no-op hook.
func (b *Base) IterationBegin() {}

// ResetSourceGate clears the interval counter after a source fired.
func (b *Base) ResetSourceGate() { b.InternalSinceSource = 0 }
