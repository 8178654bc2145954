package stafilos

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
)

// scwf is what the two SCWF drivers share: the scheduler, clock, statistics
// and introspection handles, and — once install has run — a TM Windowed
// Receiver on every input port, wired to the scheduler. Director drives it
// from one thread (and is the only driver that can run virtual time or be
// stepped); ParallelDirector drives it from a worker pool.
type scwf struct {
	sched Scheduler
	clk   clock.Clock
	stats *stats.Registry
	obs   *obs.Engine
	env   *Env
	// evpool is the director-wide CWEvent free-list behind the zero-alloc
	// firing loop: the drivers' timekeepers stamp from it and consumed
	// passthrough windows release into it at the recycle point.
	evpool *event.Pool

	// Set by install, read-only afterwards. wf doubles as the set-up mark.
	// recvByPort serves Receiver (introspection, RouteExpired); no firing
	// reads it. sources is the source set install found, which the idle
	// path reads instead of rebuilding it with wf.Sources().
	wf         *model.Workflow
	sources    []model.Actor
	receivers  []*TMReceiver
	recvByPort map[*model.Port]*TMReceiver
}

func newSCWF(sched Scheduler, opts Options) scwf {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Stats == nil {
		opts.Stats = stats.NewRegistry()
	}
	return scwf{
		sched:  sched,
		clk:    opts.Clock,
		stats:  opts.Stats,
		obs:    opts.Obs,
		evpool: event.NewPool(event.DirectorPoolCap),
		env: &Env{
			Clock:          opts.Clock,
			Stats:          opts.Stats,
			Priorities:     opts.Priorities,
			SourceInterval: opts.SourceInterval,
			Obs:            opts.Obs,
		},
	}
}

// Stats returns the runtime statistics registry.
func (c *scwf) Stats() *stats.Registry { return c.stats }

// ActorQueueDepths yields per-actor scheduler backlog when the policy
// exposes it (every internal/sched policy does, via stafilos.Base); the
// introspection layer scrapes it.
func (c *scwf) ActorQueueDepths(yield func(actor string, ready, buffered int)) {
	if q, ok := c.sched.(interface {
		ActorQueueDepths(func(string, int, int))
	}); ok {
		q.ActorQueueDepths(yield)
	}
}

// install validates the workflow, initializes the scheduler, installs a TM
// Windowed Receiver on every input port, registers the actors (classifying
// sources) with the scheduler, and initializes every actor. recvClk is the
// clock the receivers stamp arrivals with: the engine clock, or the
// one-thread driver's view of it that holds a firing's second instant
// (heldClock). oneThread says every delivery happens on the caller's thread,
// which makes every windowed ring single-writer and lets each actor keep one
// firing context (stamping from the event pool) for the whole run; otherwise
// only ports with one upstream writer port are single-writer (its actor's
// firing flag serializes producers, and EndFire→TryFire orders their ring
// accesses across workers) and the driver brings its own contexts.
func (c *scwf) install(wf *model.Workflow, recvClk clock.Clock, oneThread bool) error {
	if c.wf != nil {
		return fmt.Errorf("stafilos: director already set up")
	}
	if err := wf.Validate(); err != nil {
		return err
	}
	c.env.WF = wf
	if err := c.sched.Init(c.env); err != nil {
		return err
	}
	be, hasBatch := c.sched.(BatchEnqueuer)
	c.recvByPort = make(map[*model.Port]*TMReceiver, len(wf.InputPorts()))
	for _, p := range wf.InputPorts() {
		r := NewTMReceiver(p, recvClk, c.stats, c.sched.Enqueue)
		r.SetPool(c.evpool)
		if hasBatch {
			r.SetBatchEnqueue(be.EnqueueBatch)
		}
		if oneThread || len(p.Sources()) <= 1 {
			r.MarkSingleWriter()
		}
		p.SetReceiver(r)
		c.receivers = append(c.receivers, r)
		c.recvByPort[p] = r
	}
	c.sources = wf.Sources()
	for _, a := range wf.Actors() {
		e := c.sched.Register(a, slices.Contains(c.sources, a))
		e.stats = c.stats.Entry(a.Name())
		if oneThread {
			tk := event.NewTimekeeper()
			tk.SetPool(c.evpool)
			e.ctx = model.NewFireContext(c.clk, tk)
		}
		if err := a.Initialize(model.NewFireContext(c.clk, event.NewTimekeeper())); err != nil {
			return fmt.Errorf("stafilos: initialize %s: %w", a.Name(), err)
		}
	}
	c.wf = wf
	return nil
}

// recycle is the recycle point of the event ownership protocol: the firing
// that consumed item has been broadcast and traced, nothing downstream
// retains its window, so the window goes back to the receiver that built it
// — the one installed on the item's port.
func recycle(item *ReadyItem) {
	if r, ok := item.Port.Receiver().(*TMReceiver); ok {
		r.Recycle(item.Win)
	}
}

// wrapup releases actor resources after execution ends.
func (c *scwf) wrapup() {
	for _, a := range c.wf.Actors() {
		a.Wrapup()
	}
}

func (c *scwf) sourcesExhausted() bool {
	for _, a := range c.sources {
		if sa, ok := a.(model.SourceActor); ok && !sa.Exhausted() {
			return false
		}
	}
	return true
}

// PollTimeouts fires the window-formation timeouts that are due at now.
func PollTimeouts(rs []*TMReceiver, now time.Time) {
	for _, r := range rs {
		if dl, ok := r.NextDeadline(); ok && !dl.After(now) {
			r.OnTime(now)
		}
	}
}

// EarliestDeadline reports the soonest pending window-formation deadline.
func EarliestDeadline(rs []*TMReceiver) (time.Time, bool) {
	var best time.Time
	found := false
	for _, r := range rs {
		if dl, ok := r.NextDeadline(); ok && (!found || dl.Before(best)) {
			best, found = dl, true
		}
	}
	return best, found
}
