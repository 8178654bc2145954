package stafilos

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/stats"
)

// ParallelDirector is the paper's first single-node scalability direction
// (Section 5): an SCWF director aware of the machine's cores, balancing the
// ready-actors queue across workers while respecting data dependencies.
//
// There is no engine lock and no dispatcher. The engine state is sharded:
//   - the scheduler serializes its own bookkeeping behind the policy lock
//     (the Scheduler concurrency contract), with critical sections limited
//     to heap and state updates;
//   - each actor entry carries its own ready-queue lock and an atomic
//     firing flag, so a worker owns an actor's windows from a successful
//     Claim until EndFire;
//   - each windowed input port's receiver elects one drainer at a time for
//     its window operator (the draining CAS);
//   - per-actor statistics live in per-entry shards (internal/stats).
//
// A worker that finishes a firing delivers its emissions straight through
// BroadcastEmissions (receivers enqueue produced windows at the
// scheduler) and claims its next actor directly from the
// policy — the only serialization left on the hot path is the policy lock
// and the locks of the ports actually touched.
//
// Two invariants of the model are preserved: an actor never fires
// concurrently with itself (the per-entry firing flag, claimed atomically
// under the policy lock), and the scheduling policy still decides order
// (workers claim through Claim, which walks the policy's own NextActor
// order and only skips actors that are mid-firing on another worker).
// It always runs in real time (parallel firings have no single virtual
// timeline), which is why the sequential Director remains beside it as the
// second driver over the shared SCWF core.
type ParallelDirector struct {
	scwf
	workers int

	// pool recycles per-firing contexts (timekeeper, staged windows,
	// emission buffer) and broadcast scratch buffers across workers.
	pool sync.Pool

	// inFlight counts claim attempts and claimed-but-unfinished firings; a
	// worker increments it before asking the scheduler, so a zero reading
	// with no queued work means no firing can still produce events.
	inFlight atomic.Int64
	// executing gauges concurrent firings; its high-watermark is the
	// director's peak concurrency.
	executing stats.PeakGauge
	// stopped is latched by StopWorkflow.
	stopped atomic.Bool

	// wake is the workers' spin-then-yield-then-park wait point: Wake is
	// called whenever new work may exist (a firing completed, the
	// coordinator ticked) and costs two atomics when every worker is busy.
	// Its generation counter doubles as the maintenance gate below.
	wake *ring.Waiter

	// stateMu guards the terminal run state below (cold path only).
	stateMu sync.Mutex
	// quit is set by the worker that detects completion.
	quit bool
	// err is the first firing error; it halts the run.
	err error

	// iterMu serializes scheduler iteration maintenance; lastMaint is the
	// wake generation at which maintenance last ran, so idle workers do not
	// spin re-running IterationEnd when nothing changed.
	iterMu    sync.Mutex
	lastMaint uint64
}

// fireClaimBatch caps how many ready items one claim fires back-to-back.
// Firing a backlog as one batch pays the claim, policy report, broadcast
// and wake once per batch instead of once per window — the dominant cost
// for cheap actors — while staying small enough that the policy reorders
// across actors at a fine grain.
const fireClaimBatch = 16

// firingScratch is the pooled per-firing workspace.
type firingScratch struct {
	ctx     *model.FireContext
	scratch []*event.Event
	items   []ReadyItem
	emitted []model.Emission
}

// NewParallelDirector builds a parallel SCWF director with the given worker
// count (0 = GOMAXPROCS).
func NewParallelDirector(sched Scheduler, opts Options, workers int) *ParallelDirector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Clock = clock.NewReal() // parallel execution is real-time only
	d := &ParallelDirector{
		scwf:    newSCWF(sched, opts),
		workers: workers,
		wake:    ring.NewWaiter(),
	}
	d.pool.New = func() any {
		tk := event.NewTimekeeper()
		tk.SetPool(d.evpool)
		return &firingScratch{ctx: model.NewFireContext(d.clk, tk)}
	}
	return d
}

// Name implements model.Director.
func (d *ParallelDirector) Name() string {
	return fmt.Sprintf("SCWF-parallel(%d)/%s", d.workers, d.sched.Name())
}

// Workers returns the configured worker count.
func (d *ParallelDirector) Workers() int { return d.workers }

// PeakConcurrency reports the maximum number of simultaneous firings
// observed so far. It is safe to call at any time, including after Run.
func (d *ParallelDirector) PeakConcurrency() int {
	return int(d.executing.Peak())
}

// Executing reports the number of firings running right now.
func (d *ParallelDirector) Executing() int {
	return int(d.executing.Level())
}

// Setup implements model.Director. Consumed passthrough windows release
// their events into the director-wide pool.
func (d *ParallelDirector) Setup(wf *model.Workflow) error {
	return d.install(wf, d.clk, false)
}

// Run implements model.Director: it starts the worker pool and a timer
// coordinator and blocks until the workflow stops, everything drains, a
// firing fails, or ctx is cancelled.
func (d *ParallelDirector) Run(ctx context.Context) error {
	if d.wf == nil {
		return model.ErrNotSetup
	}
	defer d.wrapup()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	d.sched.IterationBegin()

	var workers sync.WaitGroup
	for i := 0; i < d.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			d.worker(runCtx)
		}()
	}
	var coord sync.WaitGroup
	coord.Add(1)
	go func() {
		defer coord.Done()
		d.coordinate(runCtx)
	}()

	workers.Wait()
	cancel()
	coord.Wait()

	d.stateMu.Lock()
	err := d.err
	d.stateMu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// worker is the self-claiming execution loop: claim the next actor from
// the policy, fire it, deliver its emissions, repeat. When nothing is
// claimable the worker runs the scheduler's iteration maintenance once per
// wake generation, then either detects completion or sleeps until a firing
// completes or the coordinator ticks.
//
//confvet:hotpath
func (d *ParallelDirector) worker(ctx context.Context) {
	for {
		if ctx.Err() != nil || d.halted() {
			return
		}
		e := d.claim()
		if e == nil {
			e = d.maintainAndClaim()
		}
		if e == nil {
			if d.drained() {
				d.announceQuit()
				return
			}
			d.waitForWork(ctx)
			continue
		}
		d.fire(e)
	}
}

// claim pulls the next runnable actor from the policy. inFlight brackets
// the attempt so completion detection never races a concurrent claim.
func (d *ParallelDirector) claim() *Entry {
	d.inFlight.Add(1)
	var e *Entry
	if d.obs != nil {
		begin := time.Now()
		e = d.sched.Claim()
		name := ""
		if e != nil {
			name = e.Actor.Name()
		}
		d.obs.ClaimObserved(name, time.Since(begin))
	} else {
		e = d.sched.Claim()
	}
	if e == nil {
		d.inFlight.Add(-1)
	}
	return e
}

// maintainAndClaim runs the scheduler's end-of-iteration maintenance
// (re-quantification, queue swaps, period rollover) followed by the start
// of the next iteration, then retries the claim. The director iteration
// boundary is "nothing claimable right now" — the parallel analogue of the
// sequential director's NextActor returning nil. Maintenance is gated to
// once per wake generation so idle workers do not spin re-quantifying.
func (d *ParallelDirector) maintainAndClaim() *Entry {
	cur := d.wake.Gen()
	d.iterMu.Lock()
	if d.lastMaint != cur {
		d.lastMaint = cur
		d.sched.IterationEnd()
		d.sched.IterationBegin()
	}
	d.iterMu.Unlock()
	return d.claim()
}

// fire runs one claimed slot on the calling worker. Sources fire once;
// internal actors fire their ready backlog as one batch (up to
// fireClaimBatch items), paying the claim, the policy report, the
// broadcast pass and the wake once per batch — the batched analogue of
// the PNCWF firing loop, extended to the scheduled executor.
func (d *ParallelDirector) fire(e *Entry) {
	defer d.inFlight.Add(-1)

	if e.Source {
		d.fireSource(e)
		return
	}

	fs := d.pool.Get().(*firingScratch)
	max := fireClaimBatch
	if d.obs != nil {
		// Observability wants per-firing spans, costs and queue waits;
		// batch of one keeps them exact.
		max = 1
	}
	fs.items = e.PopBatch(fs.items[:0], max)
	if len(fs.items) == 0 {
		// Stale ACTIVE state; let the policy fix it.
		d.sched.ActorFired(e, 0, 0)
		e.EndFire()
		d.pool.Put(fs)
		return
	}
	d.fireBatch(e, fs)
}

// fireSource runs one source firing (sources have no ready queue to batch).
func (d *ParallelDirector) fireSource(e *Entry) {
	a := e.Actor
	fireAt := d.clk.Now()
	if ps, ok := a.(PushSource); ok && !ps.Available(fireAt) {
		// Nothing to ingest yet: count the slot so the policy moves on,
		// but do no work. No wakeup — the coordinator's tick retries
		// paced sources.
		d.sched.ActorFired(e, 0, 0)
		e.EndFire()
		return
	}

	fs := d.pool.Get().(*firingScratch)
	ctx := fs.ctx
	ctx.Reset()
	d.executing.Inc()

	ctx.BeginFiring(nil)
	fireErr := model.Invoke(a, ctx)
	emissions := ctx.EndFiring()
	// The clock is always clock.Real here, so the second reading both ends
	// the cost measurement and dates the statistics record.
	after := d.clk.Now()
	cost := after.Sub(fireAt)

	// Record the trace span before delivery: a downstream worker can fire
	// the moment the broadcast lands, and a wave's spans must stay in actor-
	// path order.
	if d.obs != nil {
		d.obs.FiringObserved(a.Name(), nil, emissions, fireAt, cost, 0, 0)
	}
	// Deliver before reporting the firing: once ActorFired runs and the
	// claim is released, the policy may schedule downstream work, which must
	// already see these events.
	fs.scratch = model.BroadcastEmissions(emissions, fs.scratch)
	e.stats.RecordFiring(cost, 0, len(emissions), after)
	d.sched.ActorFired(e, cost, len(emissions))
	if ctx.Stopped() {
		d.stopped.Store(true)
	}
	d.executing.Dec()
	e.EndFire()
	d.pool.Put(fs)

	if fireErr != nil {
		d.fail(fireErr)
		return
	}
	d.kick()
}

// fireBatch drives the popped items through the prefire/fire/postfire
// lifecycle back-to-back on one context, copying each firing's emissions
// (EndFiring's slice is only valid until the next BeginFiring), then
// broadcasts the whole batch, records the firings, reports once to the
// policy, and recycles the consumed passthrough windows — the recycle
// point of the event ownership protocol, after broadcast and trace. The
// batch reads the clock once before and once after, like a sequential
// firing.
func (d *ParallelDirector) fireBatch(e *Entry, fs *firingScratch) {
	a := e.Actor
	ctx := fs.ctx
	ctx.Reset()
	d.executing.Inc()

	fireAt := d.clk.Now()
	var fireErr error
	var trigger *event.Event
	fs.emitted = fs.emitted[:0]
	fired, consumed := 0, 0
	for i := range fs.items {
		item := &fs.items[i]
		trigger = nil
		if n := item.Win.Len(); n > 0 {
			trigger = item.Win.Events[n-1]
		}
		ctx.BeginFiring(trigger)
		ctx.Stage(item.Port, item.Win)
		fireErr = model.Invoke(a, ctx)
		fs.emitted = append(fs.emitted, ctx.EndFiring()...)
		fired++
		consumed += item.Win.Len()
		if fireErr != nil || ctx.Stopped() {
			break
		}
	}
	after := d.clk.Now()
	cost := after.Sub(fireAt)

	if d.obs != nil {
		// fire caps an observed batch at one item, so the batch is the
		// firing: its cost and queue wait are exact, and the span is
		// recorded before delivery, keeping a wave's spans in path order.
		var qw time.Duration
		if enq := fs.items[0].Enqueued; !enq.IsZero() {
			qw = fireAt.Sub(enq)
		}
		d.obs.FiringObserved(a.Name(), trigger, fs.emitted, fireAt, cost, qw, consumed)
	}
	// Deliver before reporting: once ActorFired runs and the claim is
	// released, the policy may schedule downstream work, which must already
	// see these events.
	fs.scratch = model.BroadcastEmissions(fs.emitted, fs.scratch)
	e.stats.RecordFirings(fired, cost, consumed, len(fs.emitted), after)
	d.sched.ActorFired(e, cost, len(fs.emitted))
	// Consumed inputs are dead past this point: trace recorded, emissions
	// broadcast, windows never handed to anything that may retain them.
	for i := range fs.items {
		recycle(&fs.items[i])
		fs.items[i] = ReadyItem{}
	}
	if ctx.Stopped() {
		d.stopped.Store(true)
	}
	d.executing.Dec()
	e.EndFire()
	d.pool.Put(fs)

	if fireErr != nil {
		d.fail(fireErr)
		return
	}
	d.kick()
}

// coordinate is the light housekeeping goroutine: it fires due window
// timeouts and wakes the workers on a short tick, which also serves as the
// polling cadence for real-time paced sources. It does no scheduling.
func (d *ParallelDirector) coordinate(ctx context.Context) {
	ticker := time.NewTicker(200 * time.Microsecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			d.kick()
			return
		case <-ticker.C:
			PollTimeouts(d.receivers, d.clk.Now())
			d.kick()
		}
	}
}

// kick bumps the wake generation and wakes any parked worker: two atomics
// when everyone is busy or still spinning, one broadcast otherwise.
//
//confvet:hotpath
func (d *ParallelDirector) kick() {
	d.wake.Wake()
}

// waitForWork spins, yields, then parks until the wake generation changes
// or the run halts. The generation is snapshotted before the halt re-check,
// so a kick (or announceQuit/fail, which both Wake) landing after the
// snapshot makes the Wait return immediately — no lost wakeup. The
// coordinator ticks a few times per millisecond, bounding the park.
func (d *ParallelDirector) waitForWork(ctx context.Context) {
	seen := d.wake.Gen()
	if d.halted() || ctx.Err() != nil {
		return
	}
	d.wake.Wait(seen, 0)
}

// halted reports whether the run should stop claiming work.
func (d *ParallelDirector) halted() bool {
	if d.stopped.Load() {
		return true
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	return d.quit || d.err != nil
}

// drained reports whether execution is complete: every source exhausted,
// no queued or buffered events, no firing in flight that could still
// produce events, and no pending window-timeout deadline that could still
// release one. Probe order carries the proof:
//
//   - inFlight first: claims increment it before consulting the scheduler,
//     so a zero here with empty queues cannot hide an in-progress firing.
//   - Receivers before the scheduler: a drain (including the coordinator's
//     OnTime) enqueues at the scheduler and republishes its deadline before
//     clearing the draining flag, so once a receiver probes idle with no
//     deadline, everything it ever delivered is visible to the HasWork
//     check that follows — a timeout firing between the two probes can no
//     longer strand work behind a stale reading.
func (d *ParallelDirector) drained() bool {
	if d.inFlight.Load() != 0 {
		return false
	}
	for _, r := range d.receivers {
		if r.Pending() {
			return false
		}
		if _, ok := r.NextDeadline(); ok {
			return false
		}
	}
	if d.sched.HasWork() {
		return false
	}
	return d.sourcesExhausted()
}

// HasPendingWork reports whether the run can still make progress: the
// liveness probe behind the introspection server's /healthz. A stopped or
// drained director is quiesced.
func (d *ParallelDirector) HasPendingWork() bool {
	if d.stopped.Load() {
		return false
	}
	return !d.drained()
}

// announceQuit latches completion and wakes everyone so the pool unwinds.
// The latch is written before the Wake, so a worker that snapshots the
// generation after this Wake re-observes quit before parking.
func (d *ParallelDirector) announceQuit() {
	d.stateMu.Lock()
	d.quit = true
	d.stateMu.Unlock()
	d.wake.Wake()
}

// fail records the first firing error and halts the run.
func (d *ParallelDirector) fail(err error) {
	d.stateMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.stateMu.Unlock()
	d.wake.Wake()
}
