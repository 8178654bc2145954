package stafilos

import (
	"fmt"
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

	// Set by install, read-only afterwards. wf doubles as the set-up mark.
	wf         *model.Workflow
	receivers  []*TMReceiver
	recvByPort map[*model.Port]*TMReceiver
	entries    map[string]*stats.Entry
}

func newSCWF(sched Scheduler, opts Options) scwf {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Stats == nil {
		opts.Stats = stats.NewRegistry()
	}
	return scwf{
		sched: sched,
		clk:   opts.Clock,
		stats: opts.Stats,
		obs:   opts.Obs,
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
// sources) with the scheduler, and initializes every actor. pool, when
// non-nil, receives recyclable events back at the receivers' Recycle.
// oneThread says every delivery happens on the caller's thread, which makes
// every windowed ring single-writer; otherwise only ports with one upstream
// writer port are (its actor's firing flag serializes producers, and
// EndFire→TryFire orders their ring accesses across workers).
func (c *scwf) install(wf *model.Workflow, pool *event.Pool, oneThread bool) error {
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
		r := NewTMReceiver(p, c.clk, c.stats, c.sched.Enqueue)
		r.SetPool(pool)
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
	sources := map[string]bool{}
	for _, s := range wf.Sources() {
		sources[s.Name()] = true
	}
	c.entries = make(map[string]*stats.Entry, len(wf.Actors()))
	for _, a := range wf.Actors() {
		c.sched.Register(a, sources[a.Name()])
		c.entries[a.Name()] = c.stats.Entry(a.Name())
		if err := a.Initialize(model.NewFireContext(c.clk, event.NewTimekeeper())); err != nil {
			return fmt.Errorf("stafilos: initialize %s: %w", a.Name(), err)
		}
	}
	c.wf = wf
	return nil
}

// recycle is the recycle point of the event ownership protocol: the firing
// that consumed item has been broadcast and traced, nothing downstream
// retains its window, so the window goes back to the receiver that built it.
func (c *scwf) recycle(item *ReadyItem) {
	if r, ok := c.recvByPort[item.Port]; ok {
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
	for _, a := range c.wf.Sources() {
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
