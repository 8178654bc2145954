// Package director provides the models of computation beyond the SCWF
// director: the thread-based PNCWF director that CONFLuEnCE originally ran
// on (the paper's baseline, with resource management delegated to the OS),
// a deterministic virtual-time simulation of that thread-based execution
// for the experiment grid, and the SDF/DDF inside-directors that govern the
// Linear Road sub-workflows.
package director

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/window"
)

// PNCWF is CONFLuEnCE's original thread-based Continuous Workflow director:
// every actor is wrapped in its own thread (goroutine) so actors run in
// parallel and block whenever there is no more data to consume. Resource
// management and allocation among the threads is handled directly by the
// runtime/OS — which is precisely why it offers no margin for QoS-based
// optimization and serves as the paper's baseline.
type PNCWF struct {
	clk   clock.Clock
	stats *stats.Registry

	wf        *model.Workflow
	receivers map[*model.Port]*RingReceiver
	// pool recycles events across the whole workflow: sources draw stamped
	// events from it and edge consumers return them at the recycle point
	// after broadcasting a firing batch.
	pool  *event.Pool
	setup bool

	mu      sync.Mutex
	firing  int // actors currently inside fire()
	stopped bool
	// liveSources counts source-controller goroutines still running; a
	// source goroutine exits exactly when its source is exhausted (or the
	// run ends), so the monitor never touches actor state concurrently.
	liveSources int
	// wake nudges the quiescence monitor whenever engine state changes
	// (firing completed, source exhausted, stop requested), so the monitor
	// sleeps instead of busy-ticking.
	wake chan struct{}
}

// PNCWFOptions configures the thread-based director.
type PNCWFOptions struct {
	// Stats receives measured runtime statistics (optional).
	Stats *stats.Registry
}

// NewPNCWF builds a thread-based director. It always runs in real time:
// thread interleaving is decided by the Go runtime and the OS, the exact
// property the paper contrasts STAFiLOS against. For deterministic
// experiments use NewThreadSim.
func NewPNCWF(opts PNCWFOptions) *PNCWF {
	if opts.Stats == nil {
		opts.Stats = stats.NewRegistry()
	}
	return &PNCWF{clk: clock.NewReal(), stats: opts.Stats, wake: make(chan struct{}, 1)}
}

// Name implements model.Director.
func (d *PNCWF) Name() string { return "PNCWF" }

// Stats returns the measured runtime statistics.
func (d *PNCWF) Stats() *stats.Registry { return d.stats }

// Setup implements model.Director.
func (d *PNCWF) Setup(wf *model.Workflow) error {
	if d.setup {
		return fmt.Errorf("director: PNCWF already set up")
	}
	if err := wf.Validate(); err != nil {
		return err
	}
	d.wf = wf
	d.pool = event.NewPool(event.DirectorPoolCap)
	d.receivers = make(map[*model.Port]*RingReceiver)
	for _, p := range wf.InputPorts() {
		// One upstream output port means one upstream actor goroutine, which
		// proves the single-writer precondition of the SPSC ring; fan-in
		// edges fall back to the CAS-cursor MPMC ring.
		multi := len(p.Sources()) > 1
		r := NewRingReceiver(p.Spec(), d.clk, d.pool, multi, 0)
		p.SetReceiver(r)
		d.receivers[p] = r
	}
	for _, a := range wf.Actors() {
		ctx := model.NewFireContext(d.clk, event.NewTimekeeper())
		if err := a.Initialize(ctx); err != nil {
			return fmt.Errorf("director: initialize %s: %w", a.Name(), err)
		}
	}
	d.setup = true
	return nil
}

// Run implements model.Director: spawn one controller goroutine per actor,
// wait for quiescence (all sources exhausted, no pending windows, no firing
// in progress) or cancellation.
func (d *PNCWF) Run(ctx context.Context) error {
	if !d.setup {
		return model.ErrNotSetup
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	sources := map[string]bool{}
	for _, s := range d.wf.Sources() {
		sources[s.Name()] = true
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(d.wf.Actors()))
	for _, a := range d.wf.Actors() {
		wg.Add(1)
		if sources[a.Name()] {
			d.mu.Lock()
			d.liveSources++
			d.mu.Unlock()
			go func(a model.Actor) {
				defer wg.Done()
				defer func() {
					d.mu.Lock()
					d.liveSources--
					d.mu.Unlock()
					d.poke()
				}()
				if err := d.runSource(runCtx, a); err != nil {
					errCh <- err
					cancel()
				}
			}(a)
		} else {
			go func(a model.Actor) {
				defer wg.Done()
				defer d.poke()
				if err := d.runActor(runCtx, a); err != nil {
					errCh <- err
					cancel()
				}
			}(a)
		}
	}

	// Quiescence monitor: when the workflow can make no further progress,
	// close the receivers so blocked actor threads drain and exit. It is
	// deadline-aware: it sleeps until poked by engine activity or until the
	// earliest window-formation deadline (with a coarse safety tick), so an
	// idle workflow does not burn a core busy-polling.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		d.monitor(runCtx)
	}()

	wg.Wait()
	cancel()
	<-monitorDone
	for _, a := range d.wf.Actors() {
		a.Wrapup()
	}
	select {
	case err := <-errCh:
		return err
	default:
	}
	return ctx.Err()
}

// monitor waits for quiescence, sleeping between checks until engine
// activity (poke) or the next receiver deadline.
func (d *PNCWF) monitor(ctx context.Context) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if d.quiescent() {
			d.closeAll()
			return
		}
		wait := 250 * time.Millisecond // safety tick when no deadline exists
		if dl, ok := d.earliestDeadline(); ok {
			if w := time.Until(dl) + time.Millisecond; w < wait {
				wait = w
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			d.closeAll()
			return
		case <-d.wake:
		case <-timer.C:
		}
	}
}

// poke nudges the quiescence monitor without blocking.
func (d *PNCWF) poke() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// earliestDeadline scans receivers for the soonest window-formation
// deadline.
func (d *PNCWF) earliestDeadline() (time.Time, bool) {
	var best time.Time
	found := false
	for _, r := range d.receivers {
		if dl, ok := r.NextDeadline(); ok && (!found || dl.Before(best)) {
			best, found = dl, true
		}
	}
	return best, found
}

func (d *PNCWF) closeAll() {
	for _, r := range d.receivers {
		r.Close()
	}
}

// quiescent reports whether no further progress is possible.
func (d *PNCWF) quiescent() bool {
	d.mu.Lock()
	firing := d.firing
	stopped := d.stopped
	live := d.liveSources
	d.mu.Unlock()
	if stopped {
		return true
	}
	// A source goroutine exits only once its source is exhausted; while any
	// is alive, more external data can still arrive. (Checking the counter
	// instead of the actors keeps the monitor off actor state, which the
	// source goroutine mutates concurrently.)
	if firing > 0 || live > 0 {
		return false
	}
	for _, r := range d.receivers {
		if _, timed := r.NextDeadline(); r.Pending() || timed {
			return false
		}
	}
	return true
}

// outEdges lists the receivers a's emissions land in: the edges a waits on
// before it fires. An edge back into a itself is left out, since a would
// wait on its own consumption.
func (d *PNCWF) outEdges(a model.Actor) []*outEdge {
	var outs []*outEdge
	for _, p := range a.Outputs() {
		for _, dst := range p.Destinations() {
			if r, ok := d.receivers[dst]; ok && dst.Owner() != a {
				outs = append(outs, &outEdge{r: r, stalledAt: -1})
			}
		}
	}
	return outs
}

// throttle holds a producer, before it fires, on every out-edge whose
// backlog estimate reached backlogMark (see outEdge.wait).
//
//confvet:hotpath
func throttle(outs []*outEdge) {
	for _, e := range outs {
		if e.est >= backlogMark {
			e.wait()
		}
	}
}

// admit adds a firing batch's emissions to every out-edge's backlog
// estimate: exact for a single output, an over-estimate (an early read) for
// several.
//
//confvet:hotpath
func admit(outs []*outEdge, n int) {
	for _, e := range outs {
		e.est += int64(n)
	}
}

// runSource is the thread controller for a source actor: it fires whenever
// external data is available, sleeping until the next event otherwise, and
// waits first while an out-edge's backlog is high. Like runActor it reads
// the clock twice per firing: before the firing, and after the broadcast,
// which dates the statistics record.
//
//confvet:hotpath
func (d *PNCWF) runSource(ctx context.Context, a model.Actor) error {
	fctx := model.NewFireContext(d.clk, event.NewTimekeeper())
	fctx.Timekeeper().SetPool(d.pool)
	entry := d.stats.Entry(a.Name())
	outs := d.outEdges(a)
	var scratch []*event.Event
	sa, _ := a.(model.SourceActor)
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		throttle(outs)
		fctx.BeginFiring(nil)
		start := d.clk.Now()
		if err := model.Invoke(a, fctx); err != nil {
			return err
		}
		emissions := fctx.EndFiring()
		scratch = model.BroadcastEmissions(emissions, scratch)
		admit(outs, len(emissions))
		end := d.clk.Now()
		entry.RecordFiring(end.Sub(start), 0, len(emissions), end)
		if fctx.Stopped() {
			d.stop()
			return nil
		}
		if sa != nil && sa.Exhausted() {
			return nil
		}
		if len(emissions) == 0 {
			// Nothing was due: nap until more data can exist.
			d.napUntilNextEvent(ctx, a)
		}
	}
}

// napUntilNextEvent parks a source whose firing found nothing due: until
// its next external event (at most 50 ms ahead), not at all when that event
// fell due meanwhile, and 1 ms when the source cannot tell.
func (d *PNCWF) napUntilNextEvent(ctx context.Context, a model.Actor) {
	type timed interface{ NextEventTime() (time.Time, bool) }
	if ts, ok := a.(timed); ok {
		if t, ok := ts.NextEventTime(); ok {
			now := time.Now()
			if !t.After(now) {
				return // fell due since the firing: fire again at once
			}
			if limit := now.Add(50 * time.Millisecond); t.After(limit) {
				t = limit
			}
			clock.Park(ctx, t)
			return
		}
	}
	clock.Park(ctx, time.Now().Add(time.Millisecond))
}

// fireBatchMax bounds how many ready windows an actor thread consumes per
// wake-up before broadcasting the combined emissions downstream. It trades
// a bounded (sub-millisecond) delivery delay for amortizing the receiver
// lock, the firing bookkeeping, the statistics update and — through
// BroadcastBatch — the downstream receiver lock over the whole run.
const fireBatchMax = 64

// runActor is the thread controller for an internal actor: it waits while
// an out-edge's backlog is high, blocks reading from its input ports until
// windows are produced, then fires the actor once per ready window (up to
// fireBatchMax per wake-up) and delivers the batch's combined emissions
// through the batched transport. Waiting before it takes a batch, not
// holding one, leaves its own input to fill, so back-pressure reaches the
// sources one edge at a time.
//
//confvet:hotpath
func (d *PNCWF) runActor(ctx context.Context, a model.Actor) error {
	fctx := model.NewFireContext(d.clk, event.NewTimekeeper())
	fctx.Timekeeper().SetPool(d.pool)
	entry := d.stats.Entry(a.Name())
	outs := d.outEdges(a)
	var scratch []*event.Event
	var wbuf []*window.Window
	var emitted []model.Emission
	inputs := a.Inputs()
	if len(inputs) == 0 {
		return nil // nothing to consume; pure sources handled elsewhere
	}
	fctx.SetPuller(func(p *model.Port) (*window.Window, bool) {
		if r, ok := d.receivers[p]; ok {
			return r.Get()
		}
		return nil, false
	})
	// Block on the first input port; multi-input actors pull their other
	// ports on demand through the context's puller.
	recv := d.receivers[inputs[0]]
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		throttle(outs)
		ws, ok := recv.GetBatch(wbuf[:0], fireBatchMax)
		if !ok {
			return nil
		}
		wbuf = ws
		d.enterFiring()
		start := d.clk.Now()
		var err error
		fired, consumed := 0, 0
		emitted = emitted[:0]
		stopped := false
		for _, w := range ws {
			var trigger *event.Event
			if w.Len() > 0 {
				trigger = w.Events[w.Len()-1]
			}
			fctx.BeginFiring(trigger)
			fctx.Stage(inputs[0], w)
			err = model.Invoke(a, fctx)
			// EndFiring's slice is only valid until the next BeginFiring, so
			// the batch accumulates copies of the emission records (the event
			// pointers themselves are stable).
			emitted = append(emitted, fctx.EndFiring()...)
			fired++
			consumed += w.Len()
			if err != nil {
				break
			}
			if fctx.Stopped() {
				stopped = true
				break
			}
		}
		scratch = model.BroadcastEmissions(emitted, scratch)
		admit(outs, len(emitted))
		end := d.clk.Now()
		entry.RecordFirings(fired, end.Sub(start), consumed, len(emitted), end)
		// Recycle point of the event ownership protocol: the batch has been
		// broadcast, so the consumed passthrough windows — and any of their
		// events never pinned by fan-out, an operator, or re-emission — go
		// back to the free-lists.
		recv.Recycle(ws)
		d.exitFiring()
		if err != nil {
			return err
		}
		if stopped {
			d.stop()
			return nil
		}
	}
}

func (d *PNCWF) enterFiring() {
	d.mu.Lock()
	d.firing++
	d.mu.Unlock()
}

func (d *PNCWF) exitFiring() {
	d.mu.Lock()
	d.firing--
	d.mu.Unlock()
	d.poke()
}

func (d *PNCWF) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.poke()
}
