// Package stats implements STAFiLOS's actor statistics module. It keeps
// track of the cost of each actor (time per invocation), actor input rates
// and actor output rates, which in turn give the actor's selectivity. The
// statistics are updated dynamically with each actor invocation and are
// exposed to every scheduler implemented within the framework, so that
// policies can make smart resource-allocation decisions (e.g. the Rate
// Based scheduler's Pr(A) = S_A / C_A).
//
// The registry is sharded per actor: each actor's statistics live in an
// Entry with its own lock, resolved once (receivers and directors cache the
// handle), so concurrent actor goroutines never serialize on a global
// mutex on the hot path.
package stats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ewmaAlpha is the smoothing factor for per-invocation cost, chosen like
// TCP's RTT estimator: responsive but stable.
const ewmaAlpha = 0.125

// rateWindow is the horizon over which input/output rates are measured.
const rateWindow = 5 * time.Second

// Actor aggregates the runtime statistics of one actor. The zero value is
// ready to use.
type Actor struct {
	// Invocations counts completed firings.
	Invocations int64
	// TotalCost is the summed firing cost.
	TotalCost time.Duration
	// EWMACost is the smoothed per-invocation cost.
	EWMACost time.Duration
	// InputEvents and OutputEvents are cumulative event counts.
	InputEvents  int64
	OutputEvents int64
	// Arrivals is the cumulative count of events delivered to the actor's
	// input queues (recorded by receivers, independent of firings).
	Arrivals int64
	// InputRate and OutputRate are recent events/second, measured over
	// rateWindow. InputRate counts arrivals when the window saw any and
	// consumed events otherwise, so an event that is both delivered to a
	// receiver and consumed by a firing is counted once.
	InputRate  float64
	OutputRate float64

	// rate measurement state
	winStart time.Time
	winArr   int64
	winCons  int64
	winOut   int64
	rateInit bool
}

// AvgCost returns the cumulative mean cost per invocation.
func (a Actor) AvgCost() time.Duration {
	if a.Invocations == 0 {
		return 0
	}
	return a.TotalCost / time.Duration(a.Invocations)
}

// Selectivity returns the actor's measured selectivity: output events per
// input event. Actors that have consumed nothing report selectivity 1 (the
// neutral assumption the Rate Based scheduler starts from).
func (a Actor) Selectivity() float64 {
	if a.InputEvents == 0 {
		return 1
	}
	return float64(a.OutputEvents) / float64(a.InputEvents)
}

// Cost returns the actor's cost estimate in seconds, preferring the
// smoothed value and falling back to the cumulative mean.
func (a Actor) Cost() float64 {
	c := a.EWMACost
	if c == 0 {
		c = a.AvgCost()
	}
	return c.Seconds()
}

// Entry is one actor's statistics shard: a handle resolved once per
// actor/receiver so hot-path updates take only the actor's own lock.
type Entry struct {
	mu sync.Mutex
	a  Actor
}

// RecordFiring records one completed invocation: its measured (or
// modelled) cost, how many events it consumed and how many it produced, at
// engine time now.
func (e *Entry) RecordFiring(cost time.Duration, consumed, produced int, now time.Time) {
	e.RecordFirings(1, cost, consumed, produced, now)
}

// RecordFirings records n completed invocations in one update: cost is the
// aggregate cost of the whole run of firings, consumed/produced the
// aggregate event counts. Thread-based directors that fire an actor over a
// batch of windows record the batch with one lock acquisition and two clock
// reads instead of n of each; the EWMA is fed the mean per-firing cost.
func (e *Entry) RecordFirings(n int, cost time.Duration, consumed, produced int, now time.Time) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	a := &e.a
	a.Invocations += int64(n)
	a.TotalCost += cost
	mean := cost / time.Duration(n)
	if a.EWMACost == 0 {
		a.EWMACost = mean
	} else {
		a.EWMACost = time.Duration((1-ewmaAlpha)*float64(a.EWMACost) + ewmaAlpha*float64(mean))
	}
	a.InputEvents += int64(consumed)
	a.OutputEvents += int64(produced)
	a.roll(now)
	a.winCons += int64(consumed)
	a.winOut += int64(produced)
}

// RecordArrival records n events arriving at the actor's queues; it feeds
// the input-rate estimate independent of firings. Batched deliveries record
// the whole batch in one call.
func (e *Entry) RecordArrival(n int, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.a.Arrivals += int64(n)
	e.a.roll(now)
	e.a.winArr += int64(n)
}

// Get returns a copy of the entry's statistics.
func (e *Entry) Get() Actor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.a
}

// Registry holds statistics for all actors of a workflow, sharded per
// actor. The zero value is ready to use. It is safe for concurrent use:
// the thread-based PNCWF director updates it from many goroutines, the
// SCWF director from its dispatch loop — each through a per-actor Entry,
// so updates for different actors never contend.
type Registry struct {
	// m maps actor name -> *Entry. Entries are created at most once per
	// actor and never removed, so the hot path is a lock-free Load.
	m sync.Map
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Entry resolves the named actor's statistics shard, creating it on first
// use. Receivers and directors resolve it once and keep the handle.
func (r *Registry) Entry(name string) *Entry {
	if e, ok := r.m.Load(name); ok {
		return e.(*Entry)
	}
	e, _ := r.m.LoadOrStore(name, &Entry{})
	return e.(*Entry)
}

// RecordFiring records one completed invocation of the named actor. Hot
// loops should resolve the actor's Entry once instead.
func (r *Registry) RecordFiring(name string, cost time.Duration, consumed, produced int, now time.Time) {
	r.Entry(name).RecordFiring(cost, consumed, produced, now)
}

// RecordArrival records n events arriving at the named actor's queues. Hot
// loops should resolve the actor's Entry once instead.
func (r *Registry) RecordArrival(name string, n int, now time.Time) {
	r.Entry(name).RecordArrival(n, now)
}

// roll advances the rate-measurement window and folds the finished window
// into the published rates.
func (a *Actor) roll(now time.Time) {
	if !a.rateInit {
		a.rateInit = true
		a.winStart = now
		return
	}
	elapsed := now.Sub(a.winStart)
	if elapsed < rateWindow {
		return
	}
	sec := elapsed.Seconds()
	in := a.winArr
	if in == 0 {
		in = a.winCons
	}
	a.InputRate = float64(in) / sec
	a.OutputRate = float64(a.winOut) / sec
	a.winArr, a.winCons, a.winOut = 0, 0, 0
	a.winStart = now
}

// PeakGauge is an atomic level gauge with a high-watermark: Inc/Dec track a
// current level (e.g. firings in flight) while Peak remembers the highest
// level ever observed. The zero value is ready to use; all methods are safe
// for concurrent use and lock-free.
type PeakGauge struct {
	level atomic.Int64
	peak  atomic.Int64
}

// Inc raises the level by one and returns the new level, updating the peak
// high-watermark if exceeded.
func (g *PeakGauge) Inc() int64 {
	n := g.level.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return n
		}
	}
}

// Dec lowers the level by one.
func (g *PeakGauge) Dec() { g.level.Add(-1) }

// Level returns the current level.
func (g *PeakGauge) Level() int64 { return g.level.Load() }

// Peak returns the highest level ever observed.
func (g *PeakGauge) Peak() int64 { return g.peak.Load() }

// Get returns a copy of the named actor's statistics.
func (r *Registry) Get(name string) Actor {
	if e, ok := r.m.Load(name); ok {
		return e.(*Entry).Get()
	}
	return Actor{}
}

// Snapshot returns a copy of all statistics keyed by actor name.
func (r *Registry) Snapshot() map[string]Actor {
	out := make(map[string]Actor)
	r.m.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Entry).Get()
		return true
	})
	return out
}

// NamedActor pairs an actor name with a copy of its statistics.
type NamedActor struct {
	Name string
	Actor
}

// SnapshotSorted returns a copy of all statistics sorted by actor name, so
// CLI tables and introspection views are deterministic across runs (the
// Snapshot map iterates in random order).
func (r *Registry) SnapshotSorted() []NamedActor {
	var out []NamedActor
	r.m.Range(func(k, v any) bool {
		out = append(out, NamedActor{Name: k.(string), Actor: v.(*Entry).Get()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the recorded actor names, sorted.
func (r *Registry) Names() []string {
	var out []string
	r.m.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}
