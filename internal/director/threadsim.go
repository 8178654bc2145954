package director

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/stafilos"
	"repro/internal/stats"
)

// ThreadSim is a deterministic discrete-event simulation of the thread-
// based PNCWF execution, used to place the PNCWF baseline on the same
// virtual-time axis as the STAFiLOS schedulers in the experiment grid
// (DESIGN.md substitution 2).
//
// It models exactly the costs the paper attributes to the thread-based
// engine: every event delivery wakes an actor thread for a single firing
// (no batching), each wakeup pays a context-switch overhead, firings run in
// parallel on Cores OS cores, and a LockFraction portion of every firing is
// serialized on a global resource (receiver locks, allocator, runtime) —
// which is why eight cores of threads still saturate before the sequential
// SCWF dispatch loop does.
type ThreadSim struct {
	// Cores is the number of simulated OS cores (the paper's testbed had 8).
	Cores int
	// CtxSwitch is the per-wakeup thread overhead.
	CtxSwitch time.Duration
	// LockFraction is the fraction of each firing's cost serialized
	// globally across all threads.
	LockFraction float64
	// Cost models per-actor firing costs (required).
	Cost stafilos.CostModel

	clk     *clock.Virtual
	stats   *stats.Registry
	wf      *model.Workflow
	recvs   []*stafilos.TMReceiver
	ctxs    map[string]*model.FireContext
	entries map[string]*stats.Entry
	scratch []*event.Event
	setup   bool
	stop    bool

	// simulation state
	events   simHeap
	runnable []stafilos.ReadyItem
	cores    []time.Time // per-core next-free instant
	lockFree time.Time
	seq      uint64
}

// NewThreadSim builds the thread-based simulation with the given knobs;
// zero values select the calibrated defaults (8 cores, 200µs context
// switch, 0.9 lock fraction).
func NewThreadSim(cores int, ctxSwitch time.Duration, lockFraction float64, cost stafilos.CostModel, st *stats.Registry) *ThreadSim {
	if cores <= 0 {
		cores = 8
	}
	if ctxSwitch <= 0 {
		ctxSwitch = 200 * time.Microsecond
	}
	if lockFraction <= 0 {
		lockFraction = 0.9
	}
	if st == nil {
		st = stats.NewRegistry()
	}
	return &ThreadSim{
		Cores:        cores,
		CtxSwitch:    ctxSwitch,
		LockFraction: lockFraction,
		Cost:         cost,
		clk:          clock.NewVirtual(),
		stats:        st,
	}
}

// Name implements model.Director.
func (d *ThreadSim) Name() string { return "PNCWF-sim" }

// Clock returns the simulation clock.
func (d *ThreadSim) Clock() *clock.Virtual { return d.clk }

// Stats returns the statistics registry.
func (d *ThreadSim) Stats() *stats.Registry { return d.stats }

// simEvent is one simulation occurrence.
type simEvent struct {
	at   time.Time
	seq  uint64
	kind simKind
	item stafilos.ReadyItem // itemReady
	src  model.Actor        // sourceDue / fireDone
	done func() error       // fireDone completion
}

type simKind int

const (
	itemReady simKind = iota
	sourceDue
	fireDone
)

type simHeap []simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *simHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (d *ThreadSim) push(e simEvent) {
	d.seq++
	e.seq = d.seq
	heap.Push(&d.events, e)
}

// Setup implements model.Director.
func (d *ThreadSim) Setup(wf *model.Workflow) error {
	if d.setup {
		return fmt.Errorf("director: ThreadSim already set up")
	}
	if d.Cost == nil {
		return fmt.Errorf("director: ThreadSim requires a cost model")
	}
	if err := wf.Validate(); err != nil {
		return err
	}
	d.wf = wf
	for _, p := range wf.InputPorts() {
		r := stafilos.NewTMReceiver(p, d.clk, d.stats, func(item stafilos.ReadyItem) {
			d.push(simEvent{at: d.clk.Now(), kind: itemReady, item: item})
		})
		p.SetReceiver(r)
		d.recvs = append(d.recvs, r)
	}
	d.ctxs = make(map[string]*model.FireContext)
	d.entries = make(map[string]*stats.Entry)
	for _, a := range wf.Actors() {
		ctx := model.NewFireContext(d.clk, event.NewTimekeeper())
		d.ctxs[a.Name()] = ctx
		d.entries[a.Name()] = d.stats.Entry(a.Name())
		if err := a.Initialize(ctx); err != nil {
			return fmt.Errorf("director: initialize %s: %w", a.Name(), err)
		}
	}
	d.cores = make([]time.Time, d.Cores)
	base := d.clk.Now()
	for i := range d.cores {
		d.cores[i] = base
	}
	d.lockFree = base
	// Seed each source's first wakeup.
	for _, a := range wf.Sources() {
		if ps, ok := a.(stafilos.PushSource); ok {
			if t, ok := ps.NextEventTime(); ok {
				d.push(simEvent{at: t, kind: sourceDue, src: a})
			}
		}
	}
	d.setup = true
	return nil
}

// Run implements model.Director: drain the simulation to completion.
func (d *ThreadSim) Run(ctx context.Context) error {
	if !d.setup {
		return model.ErrNotSetup
	}
	steps := 0
	for len(d.events) > 0 && !d.stop {
		if steps++; steps%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ev := heap.Pop(&d.events).(simEvent)
		d.clk.AdvanceTo(ev.at)
		switch ev.kind {
		case itemReady:
			d.runnable = append(d.runnable, ev.item)
			d.dispatch()
		case sourceDue:
			d.dispatchSource(ev.src)
		case fireDone:
			if err := ev.done(); err != nil {
				return err
			}
			stafilos.PollTimeouts(d.recvs, d.clk.Now())
			d.dispatch()
		}
		if len(d.events) == 0 && len(d.runnable) == 0 {
			// Only window-formation deadlines can create more work.
			if dl, ok := stafilos.EarliestDeadline(d.recvs); ok {
				d.clk.AdvanceTo(dl)
				stafilos.PollTimeouts(d.recvs, d.clk.Now())
			}
		}
	}
	return ctx.Err()
}

// freeCore returns the index of a core available at or before now, or -1.
func (d *ThreadSim) freeCore(now time.Time) int {
	for i, t := range d.cores {
		if !t.After(now) {
			return i
		}
	}
	return -1
}

// dispatch starts runnable firings on free cores (FIFO, like the OS ready
// queue the paper describes).
func (d *ThreadSim) dispatch() {
	now := d.clk.Now()
	for len(d.runnable) > 0 {
		core := d.freeCore(now)
		if core < 0 {
			return
		}
		item := d.runnable[0]
		d.runnable = d.runnable[1:]
		d.startFiring(core, now, item)
	}
}

// startFiring charges the thread wakeup, lock serialization and actor cost,
// then schedules the completion at which the actor actually executes (so
// its emissions carry the completion timestamp).
func (d *ThreadSim) startFiring(core int, now time.Time, item stafilos.ReadyItem) {
	a := item.Actor
	cost := d.Cost.FiringCost(a, item.Win.Len(), 0) + d.CtxSwitch
	serial := time.Duration(float64(cost) * d.LockFraction)
	lockStart := now
	if d.lockFree.After(lockStart) {
		lockStart = d.lockFree
	}
	end := lockStart.Add(cost)
	d.lockFree = lockStart.Add(serial)
	d.cores[core] = end

	d.push(simEvent{at: end, kind: fireDone, src: a, done: func() error {
		return d.completeFiring(a, item, cost)
	}})
}

func (d *ThreadSim) completeFiring(a model.Actor, item stafilos.ReadyItem, cost time.Duration) error {
	ctx := d.ctxs[a.Name()]
	var trigger *event.Event
	if n := item.Win.Len(); n > 0 {
		trigger = item.Win.Events[n-1]
	}
	ctx.BeginFiring(trigger)
	ctx.Stage(item.Port, item.Win)
	if err := model.Invoke(a, ctx); err != nil {
		return err
	}
	emissions := ctx.EndFiring()
	d.scratch = model.BroadcastEmissions(emissions, d.scratch)
	d.entries[a.Name()].RecordFiring(cost, item.Win.Len(), len(emissions), d.clk.Now())
	if ctx.Stopped() {
		d.stop = true
	}
	return nil
}

// dispatchSource runs one per-token source pump: the source thread wakes,
// pays the context switch, ingests a single item, and re-arms for the next
// feed arrival — the unbatched pumping of the thread-based engine.
func (d *ThreadSim) dispatchSource(a model.Actor) {
	now := d.clk.Now()
	core := d.freeCore(now)
	if core < 0 {
		// All cores busy: retry when the earliest core frees up.
		earliest := d.cores[0]
		for _, t := range d.cores[1:] {
			if t.Before(earliest) {
				earliest = t
			}
		}
		d.push(simEvent{at: earliest, kind: sourceDue, src: a})
		return
	}
	cost := d.Cost.FiringCost(a, 0, 1) + d.CtxSwitch
	serial := time.Duration(float64(cost) * d.LockFraction)
	lockStart := now
	if d.lockFree.After(lockStart) {
		lockStart = d.lockFree
	}
	end := lockStart.Add(cost)
	d.lockFree = lockStart.Add(serial)
	d.cores[core] = end

	d.push(simEvent{at: end, kind: fireDone, src: a, done: func() error {
		return d.completeSource(a, cost)
	}})
}

func (d *ThreadSim) completeSource(a model.Actor, cost time.Duration) error {
	ctx := d.ctxs[a.Name()]
	ctx.BeginFiring(nil)
	type oneShot interface {
		FireOne(ctx *model.FireContext) error
	}
	var err error
	if os, ok := a.(oneShot); ok {
		err = os.FireOne(ctx)
	} else {
		err = a.Fire(ctx)
	}
	if err != nil {
		return fmt.Errorf("director: fire source %s: %w", a.Name(), err)
	}
	emissions := ctx.EndFiring()
	d.scratch = model.BroadcastEmissions(emissions, d.scratch)
	d.entries[a.Name()].RecordFiring(cost, 0, len(emissions), d.clk.Now())
	if ctx.Stopped() {
		d.stop = true
	}
	// Re-arm for the next feed arrival.
	if ps, ok := a.(stafilos.PushSource); ok && !ps.Exhausted() {
		if t, ok := ps.NextEventTime(); ok {
			at := t
			if at.Before(d.clk.Now()) {
				at = d.clk.Now()
			}
			d.push(simEvent{at: at, kind: sourceDue, src: a})
		}
	}
	return nil
}
