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

	ctxs    map[string]*model.FireContext
	scratch []*event.Event
	stopped bool
}

// NewDirector builds an SCWF director running the given scheduling policy.
func NewDirector(sched Scheduler, opts Options) *Director {
	return &Director{scwf: newSCWF(sched, opts), cost: opts.Cost}
}

// Name implements model.Director.
func (d *Director) Name() string { return "SCWF/" + d.sched.Name() }

// Clock returns the engine clock.
func (d *Director) Clock() clock.Clock { return d.clk }

// Scheduler returns the plugged-in scheduling policy.
func (d *Director) Scheduler() Scheduler { return d.sched }

// Receiver returns the TM Windowed Receiver installed on port, or nil.
func (d *Director) Receiver(port *model.Port) *TMReceiver { return d.recvByPort[port] }

// Setup implements model.Director. The sequential director pools no events
// (they are left to the GC) and runs everything on one goroutine.
func (d *Director) Setup(wf *model.Workflow) error {
	if err := d.install(wf, nil, true); err != nil {
		return err
	}
	d.ctxs = make(map[string]*model.FireContext, len(wf.Actors()))
	for _, a := range wf.Actors() {
		d.ctxs[a.Name()] = model.NewFireContext(d.clk, event.NewTimekeeper())
	}
	return nil
}

// Step runs one director iteration: it signals the scheduler, repeatedly
// asks for the next actor until the scheduler returns nil, then lets the
// scheduler perform its end-of-iteration maintenance (re-quantification,
// queue swaps, period rollover). It reports whether any work was done.
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
		w, err := d.fireEntry(e)
		if err != nil {
			return worked, err
		}
		worked = worked || w
		PollTimeouts(d.receivers, d.clk.Now())
	}
	d.sched.IterationEnd()
	return worked, nil
}

// fireEntry performs one actor invocation and reports whether real work
// happened.
func (d *Director) fireEntry(e *Entry) (bool, error) {
	if e.Source {
		return d.fireSource(e)
	}
	item, ok := e.Pop()
	if !ok {
		// Policies only activate actors with events (Table 2); an empty
		// queue here means the state is stale — let the policy fix it.
		d.sched.ActorFired(e, 0, 0)
		return false, nil
	}
	a := e.Actor
	ctx := d.ctxs[a.Name()]
	var trigger *event.Event
	if n := item.Win.Len(); n > 0 {
		trigger = item.Win.Events[n-1]
	}
	ctx.BeginFiring(trigger)
	ctx.Stage(item.Port, item.Win)

	fireAt := d.clk.Now()
	start := time.Now()
	if err := model.Invoke(a, ctx); err != nil {
		return true, err
	}
	emissions := ctx.EndFiring()
	cost := d.charge(a, start, item.Win.Len(), len(emissions))
	d.deliver(emissions)
	d.entries[a.Name()].RecordFiring(cost, item.Win.Len(), len(emissions), d.clk.Now())
	d.sched.ActorFired(e, cost, len(emissions))
	if d.obs != nil {
		var qw time.Duration
		if !item.Enqueued.IsZero() {
			qw = fireAt.Sub(item.Enqueued)
		}
		d.obs.FiringObserved(a.Name(), trigger, emissions, fireAt, cost, qw, item.Win.Len())
	}
	d.recycle(&item)
	if ctx.Stopped() {
		d.stopped = true
	}
	return true, nil
}

// fireSource invokes a source actor if it has available input.
func (d *Director) fireSource(e *Entry) (bool, error) {
	a := e.Actor
	now := d.clk.Now()
	if ps, ok := a.(PushSource); ok && !ps.Available(now) {
		// Nothing to ingest: count the invocation for scheduling purposes
		// but do no work.
		d.sched.ActorFired(e, 0, 0)
		return false, nil
	}
	ctx := d.ctxs[a.Name()]
	ctx.BeginFiring(nil)
	fireAt := now
	start := time.Now()
	if err := model.Invoke(a, ctx); err != nil {
		return true, err
	}
	emissions := ctx.EndFiring()
	cost := d.charge(a, start, 0, len(emissions))
	d.deliver(emissions)
	d.entries[a.Name()].RecordFiring(cost, 0, len(emissions), d.clk.Now())
	d.sched.ActorFired(e, cost, len(emissions))
	if d.obs != nil {
		d.obs.FiringObserved(a.Name(), nil, emissions, fireAt, cost, 0, 0)
	}
	if ctx.Stopped() {
		d.stopped = true
	}
	return len(emissions) > 0, nil
}

// charge computes the firing cost (modelled or measured) and advances the
// clock in virtual mode.
func (d *Director) charge(a model.Actor, start time.Time, consumed, produced int) time.Duration {
	var cost time.Duration
	if d.cost != nil {
		cost = d.cost.FiringCost(a, consumed, produced)
		d.clk.Advance(cost + d.cost.DispatchOverhead())
	} else {
		cost = time.Since(start)
	}
	return cost
}

// deliver broadcasts the finalized emissions through the batched transport;
// TM receivers evaluate window semantics and enqueue produced windows at
// the scheduler, one batch per destination port.
func (d *Director) deliver(emissions []model.Emission) {
	d.scratch = model.BroadcastEmissions(emissions, d.scratch)
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
			time.Sleep(time.Millisecond)
			continue
		}
		d.advanceTo(next)
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
	d.advanceTo(next)
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
	for _, a := range d.wf.Sources() {
		if ps, ok := a.(PushSource); ok && !ps.Exhausted() {
			if t, ok := ps.NextEventTime(); ok && (!found || t.Before(best)) {
				best, found = t, true
			}
		}
	}
	return best, found
}

func (d *Director) advanceTo(t time.Time) {
	switch c := d.clk.(type) {
	case *clock.Virtual:
		c.AdvanceTo(t)
	default:
		if dt := time.Until(t); dt > 0 {
			if dt > 10*time.Millisecond {
				dt = 10 * time.Millisecond
			}
			time.Sleep(dt)
		}
	}
	PollTimeouts(d.receivers, d.clk.Now())
}
