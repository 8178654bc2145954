package stafilos

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PushSource extends SourceActor with the pacing the SCWF director needs:
// whether external data is available right now, and when the next external
// event is due (so idle virtual time can jump straight to it).
type PushSource interface {
	model.SourceActor
	// Available reports whether the source has data to ingest at engine
	// time now.
	Available(now time.Time) bool
	// NextEventTime reports when the source's next external event occurs.
	NextEventTime() (time.Time, bool)
}

// Options configures a Scheduled CWF director.
type Options struct {
	// Clock is the engine clock; defaults to a real (wall) clock.
	Clock clock.Clock
	// Stats receives runtime statistics; defaults to a fresh registry.
	Stats *stats.Registry
	// Cost, when set, runs the director in virtual time: every firing
	// advances Clock by the modelled cost. When nil, costs are measured.
	Cost CostModel
	// Priorities are the designer-assigned actor priorities.
	Priorities map[string]int
	// SourceInterval is the source scheduling interval in internal firings
	// (Table 3 uses 5). Zero disables interval-based source scheduling for
	// policies that use it.
	SourceInterval int
	// Obs is the optional introspection engine (nil = observability off).
	Obs *obs.Engine
}

// Director is the Scheduled CWF (SCWF) director: the schedule-independent
// component that interacts with the workflow model, initializes actors,
// ports, receivers and the scheduler, and transitions the workflow through
// the execution stages of each iteration. The scheduling policy is plugged
// in as a Scheduler implementation. It is the sequential driver over the
// shared SCWF core: one thread, steppable, and — with a cost model — the
// only path that runs virtual time.
type Director struct {
	scwf
	cost CostModel

	// held is the clock the receivers read; see heldClock.
	held    heldClock
	scratch []*event.Event
	stopped bool
}

// heldClock is the one-thread driver's clock as its receivers see it. A
// firing has two instants, before and after; while the driver delivers the
// firing's emissions it holds the second, and every receiver the delivery
// reaches stamps its arrivals with that instead of reading the clock again.
// Outside a delivery (an expired-items route out of a timeout poll, a put
// made by hand) it is the engine clock.
type heldClock struct {
	clock.Clock
	// at is the held instant; zero outside a delivery.
	at time.Time
}

// Now implements clock.Clock.
func (h *heldClock) Now() time.Time {
	if !h.at.IsZero() {
		return h.at
	}
	return h.Clock.Now()
}

// NewDirector builds an SCWF director running the given scheduling policy.
func NewDirector(sched Scheduler, opts Options) *Director {
	d := &Director{scwf: newSCWF(sched, opts), cost: opts.Cost}
	d.held.Clock = d.clk
	return d
}

// Name implements model.Director.
func (d *Director) Name() string { return "SCWF/" + d.sched.Name() }

// Clock returns the engine clock.
func (d *Director) Clock() clock.Clock { return d.clk }

// Scheduler returns the plugged-in scheduling policy.
func (d *Director) Scheduler() Scheduler { return d.sched }

// Receiver returns the TM Windowed Receiver installed on port, or nil.
func (d *Director) Receiver(port *model.Port) *TMReceiver { return d.recvByPort[port] }

// Setup implements model.Director. Everything runs on one goroutine: each
// actor keeps one firing context whose timekeeper stamps from the
// director-wide event pool, and consumed passthrough windows release their
// events back into it.
func (d *Director) Setup(wf *model.Workflow) error {
	return d.install(wf, &d.held, true)
}

// Step runs one director iteration: it signals the scheduler, repeatedly
// asks for the next actor until the scheduler returns nil, then lets the
// scheduler perform its end-of-iteration maintenance (re-quantification,
// queue swaps, period rollover). It reports whether any work was done.
//
// Window-formation timeouts are polled once on entry and once after every
// pick, at the instant the pick left behind — so a timed window closes even
// when every pick is a source with nothing available.
func (d *Director) Step() (bool, error) {
	if d.wf == nil {
		return false, model.ErrNotSetup
	}
	worked := false
	PollTimeouts(d.receivers, d.clk.Now())
	d.sched.IterationBegin()
	for !d.stopped {
		e := d.sched.NextActor()
		if e == nil {
			break
		}
		if d.obs != nil {
			// The sequential path never goes through ClaimRunnable, so
			// record the policy's pick decision here.
			d.obs.PickObserved(e.Actor.Name())
		}
		w, now, err := d.fireEntry(e)
		if err != nil {
			return worked, err
		}
		worked = worked || w
		PollTimeouts(d.receivers, now)
	}
	d.sched.IterationEnd()
	return worked, nil
}

// fireEntry performs one actor invocation. It reports whether real work
// happened and the engine time the pick ended at.
func (d *Director) fireEntry(e *Entry) (bool, time.Time, error) {
	if e.Source {
		return d.fireSource(e)
	}
	item, ok := e.Pop()
	if !ok {
		// Policies only activate actors with events (Table 2); an empty
		// queue here means the state is stale — let the policy fix it.
		d.sched.ActorFired(e, 0, 0)
		return false, d.clk.Now(), nil
	}
	var trigger *event.Event
	consumed := item.Win.Len()
	if consumed > 0 {
		trigger = item.Win.Events[consumed-1]
	}
	e.ctx.BeginFiring(trigger)
	e.ctx.Stage(item.Port, item.Win)
	_, after, err := d.fire(e, d.clk.Now(), trigger, consumed, item.Enqueued)
	if err == nil {
		recycle(&item)
	}
	return true, after, err
}

// fireSource invokes a source actor if it has available input.
func (d *Director) fireSource(e *Entry) (bool, time.Time, error) {
	now := d.clk.Now()
	if ps, ok := e.Actor.(PushSource); ok && !ps.Available(now) {
		// Nothing to ingest: count the invocation for scheduling purposes
		// but do no work.
		d.sched.ActorFired(e, 0, 0)
		return false, now, nil
	}
	e.ctx.BeginFiring(nil)
	produced, after, err := d.fire(e, now, nil, 0, time.Time{})
	return produced > 0, after, err
}

// fire runs the firing begun on e's context at engine time fireAt and
// reports how many events it produced and the engine time after it. A
// firing has two instants, before and after the actor runs, and reads the
// clock for nothing else: the second is the one its arrivals downstream,
// its statistics record and the caller's timeout poll all see.
func (d *Director) fire(e *Entry, fireAt time.Time, trigger *event.Event, consumed int, enqueued time.Time) (int, time.Time, error) {
	a, ctx := e.Actor, e.ctx
	if err := model.Invoke(a, ctx); err != nil {
		return 0, fireAt, err
	}
	emissions := ctx.EndFiring()
	cost, after := d.charge(a, fireAt, consumed, len(emissions))
	d.deliver(emissions, after)
	e.stats.RecordFiring(cost, consumed, len(emissions), after)
	d.sched.ActorFired(e, cost, len(emissions))
	if d.obs != nil {
		var qw time.Duration
		if !enqueued.IsZero() {
			qw = fireAt.Sub(enqueued)
		}
		d.obs.FiringObserved(a.Name(), trigger, emissions, fireAt, cost, qw, consumed)
	}
	if ctx.Stopped() {
		d.stopped = true
	}
	return len(emissions), after, nil
}

// charge ends a firing that began at fireAt: it returns the firing's cost
// and the engine time after it. In virtual time the cost is modelled and
// advances the clock; in real time it is what the clock measured.
func (d *Director) charge(a model.Actor, fireAt time.Time, consumed, produced int) (time.Duration, time.Time) {
	if d.cost == nil {
		after := d.clk.Now()
		return after.Sub(fireAt), after
	}
	cost := d.cost.FiringCost(a, consumed, produced)
	d.clk.Advance(cost + d.cost.DispatchOverhead())
	return cost, d.clk.Now()
}

// deliver broadcasts the finalized emissions through the batched transport;
// TM receivers evaluate window semantics and enqueue produced windows at
// the scheduler, one batch per destination port, all stamped at.
func (d *Director) deliver(emissions []model.Emission, at time.Time) {
	d.held.at = at
	d.scratch = model.BroadcastEmissions(emissions, d.scratch)
	d.held.at = time.Time{}
}

// Run implements model.Director: it steps until the workflow stops, all
// sources are exhausted with no pending work, or ctx is cancelled. When a
// step does no work, the director advances idle time to the next event
// horizon (virtual clocks jump; real clocks sleep).
func (d *Director) Run(ctx context.Context) error {
	if d.wf == nil {
		return model.ErrNotSetup
	}
	defer d.wrapup()
	idleSteps := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		worked, err := d.Step()
		if err != nil {
			return err
		}
		if d.stopped {
			return nil
		}
		if worked {
			idleSteps = 0
			continue
		}
		if d.sched.HasWork() {
			// Work exists but nothing ran (e.g. everything waits on a
			// later period); another Step after maintenance will run it.
			// Guard against a policy that never releases its work.
			idleSteps++
			if idleSteps > 10000 {
				return fmt.Errorf("stafilos: scheduler %s stalled with %d queued items",
					d.sched.Name(), d.totalQueued())
			}
			continue
		}
		idleSteps = 0
		next, ok := d.nextHorizon()
		if !ok {
			if d.sourcesExhausted() {
				return nil
			}
			// Unpaced source (e.g. network push): poll in real time.
			if _, isVirtual := d.clk.(*clock.Virtual); isVirtual {
				return nil // virtual runs require paced sources
			}
			clock.Park(ctx, time.Now().Add(time.Millisecond))
			continue
		}
		d.advanceTo(ctx, next)
	}
}

// Stopped reports whether a sink requested workflow stop.
func (d *Director) Stopped() bool { return d.stopped }

// RouteExpired wires the expired-items queue of one input port's window
// operator to another input port: events that can no longer contribute to
// any window on `from` are re-delivered to `to`, where another workflow
// activity optionally handles them (Section 2.1 of the paper). It must be
// called after Setup.
func (d *Director) RouteExpired(from, to *model.Port) error {
	src := d.Receiver(from)
	if src == nil {
		return fmt.Errorf("stafilos: no receiver on %s (RouteExpired before Setup?)", from.FullName())
	}
	dst := d.Receiver(to)
	if dst == nil {
		return fmt.Errorf("stafilos: no receiver on %s", to.FullName())
	}
	src.SetExpiredHandler(func(evs []*event.Event) {
		dst.PutBatch(evs)
	})
	return nil
}

// HasPendingWork reports whether any progress is still possible: queued
// items, pending window timeouts, or unexhausted sources. The multi-
// workflow global scheduler uses it to decide instance completion.
func (d *Director) HasPendingWork() bool {
	if d.stopped {
		return false
	}
	if d.sched.HasWork() {
		return true
	}
	if _, ok := d.nextHorizon(); ok {
		return true
	}
	return !d.sourcesExhausted()
}

// AdvanceIdle jumps idle time to the next event horizon and reports whether
// it advanced; the global scheduler calls it when every instance is idle.
func (d *Director) AdvanceIdle() bool {
	next, ok := d.nextHorizon()
	if !ok {
		return false
	}
	d.advanceTo(context.Background(), next)
	return true
}

// totalQueued reports the scheduler backlog when the policy exposes it.
func (d *Director) totalQueued() int {
	type counter interface{ TotalQueued() int }
	if c, ok := d.sched.(counter); ok {
		return c.TotalQueued()
	}
	return -1
}

// nextHorizon returns the earliest future instant at which new work can
// appear: a window-timeout deadline or a source's next external event.
func (d *Director) nextHorizon() (time.Time, bool) {
	best, found := EarliestDeadline(d.receivers)
	for _, a := range d.sources {
		if ps, ok := a.(PushSource); ok && !ps.Exhausted() {
			if t, ok := ps.NextEventTime(); ok && (!found || t.Before(best)) {
				best, found = t, true
			}
		}
	}
	return best, found
}

// advanceTo moves idle time toward t: a virtual clock jumps there, a real
// one parks until t or for 10 ms, whichever is sooner, so that an unpaced
// source (which has no horizon of its own) is still polled.
func (d *Director) advanceTo(ctx context.Context, t time.Time) {
	switch c := d.clk.(type) {
	case *clock.Virtual:
		c.AdvanceTo(t)
	default:
		if limit := time.Now().Add(10 * time.Millisecond); t.After(limit) {
			t = limit
		}
		clock.Park(ctx, t)
	}
	PollTimeouts(d.receivers, d.clk.Now())
}
