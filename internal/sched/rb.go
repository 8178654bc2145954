package sched

import (
	"time"

	"repro/internal/model"
	"repro/internal/stafilos"
)

// minCostSeconds floors cost estimates so priorities stay finite before an
// actor has been measured.
const minCostSeconds = 1e-6

// RB is the Rate Based scheduler, based on the Highest Rate scheduler of
// Sharaf et al. — the best-performing CQ scheduler with respect to average
// response time. Actor priorities are dynamic:
//
//	Pr(A) = S_A / C_A
//
// where S_A is the actor's global selectivity and C_A its global average
// cost along the downstream paths to the workflow outputs; when an actor
// feeds multiple downstream paths, the paths' global costs and global
// selectivities are added up.
//
// Event processing is divided into periods. Each period processes exactly
// the events enqueued during the previous period; newly produced events
// wait in a next-period buffer. Sources are not specially scheduled: each
// fires once per period, so input tokens wait longer to enter the workflow
// — the behavior the paper identifies as RB's response-time weakness.
//
// Like the other policies, RB locks Base.Mu internally in every exported
// Scheduler method and so satisfies the stafilos.Scheduler concurrency
// contract.
type RB struct {
	*stafilos.Base
	// prioritizeSources, when set, schedules sources in regular intervals
	// like QBS/RR instead of once per period — the ablation of DESIGN.md
	// D2, isolating how much of RB's response-time penalty the paper's
	// source-handling explanation accounts for.
	prioritizeSources bool
	internalFirings   int
}

// NewRB returns a Rate Based scheduler.
func NewRB() *RB {
	s := &RB{}
	s.Base = stafilos.NewBase(func(a, b *stafilos.Entry) bool {
		return a.DynPriority > b.DynPriority
	})
	return s
}

// NewRBPrioritizedSources returns the D2 ablation variant: Rate Based
// event processing, but sources scheduled in regular intervals.
func NewRBPrioritizedSources() *RB {
	s := NewRB()
	s.prioritizeSources = true
	return s
}

// Name implements stafilos.Scheduler.
func (s *RB) Name() string { return "RB" }

// Register implements stafilos.Scheduler.
func (s *RB) Register(a model.Actor, source bool) *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.registerLocked(a, source)
}

func (s *RB) registerLocked(a model.Actor, source bool) *stafilos.Entry {
	e := s.Base.Register(a, source)
	e.DynPriority = 1 // neutral until statistics exist
	return e
}

// Enqueue implements stafilos.Scheduler: events produced during the current
// period are parked in the next-period buffer.
func (s *RB) Enqueue(item stafilos.ReadyItem) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	e := s.Entry(item.Actor)
	if e == nil {
		e = s.registerLocked(item.Actor, false)
	}
	e.Buffer(item)
	s.reevaluate(e)
}

// EnqueueBatch implements stafilos.BatchEnqueuer: one policy-lock and one
// buffer-lock acquisition per receiver drain, with the state re-evaluated
// once per actor run (the state depends only on the final buffer content).
func (s *RB) EnqueueBatch(items []stafilos.ReadyItem) {
	if len(items) == 0 {
		return
	}
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].Actor == items[i].Actor {
			j++
		}
		e := s.Entry(items[i].Actor)
		if e == nil {
			e = s.registerLocked(items[i].Actor, false)
		}
		e.BufferBatch(items[i:j])
		s.reevaluate(e)
		i = j
	}
}

// reevaluate applies the RB column of Table 2. Called with the policy lock
// held.
func (s *RB) reevaluate(e *stafilos.Entry) {
	if e.Source {
		if e.FiredThisIteration {
			s.SetState(e, stafilos.Waiting)
		} else {
			s.SetState(e, stafilos.Active)
		}
		return
	}
	switch {
	case e.HasEvents():
		s.SetState(e, stafilos.Active)
	case e.BufferLen() > 0:
		s.SetState(e, stafilos.Waiting)
	default:
		s.SetState(e, stafilos.Inactive)
	}
}

// NextActor implements stafilos.Scheduler: the highest-rate active actor.
// The period (director iteration) ends when no actor has events from the
// previous period left and every source has fired once.
func (s *RB) NextActor() *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.nextActorLocked()
}

func (s *RB) nextActorLocked() *stafilos.Entry {
	if s.prioritizeSources && s.Env != nil && s.Env.SourceInterval > 0 &&
		s.internalFirings >= s.Env.SourceInterval {
		for _, e := range s.Sources {
			if e.Firing() {
				// Busy on a worker; interval sourcing retries later.
				s.Observer().ParkObserved(e.Actor.Name())
				continue
			}
			s.internalFirings = 0
			e.FiredThisIteration = false // interval scheduling, not once-per-period
			return e
		}
	}
	for {
		e := s.ActiveQ.Peek()
		if e == nil {
			return nil
		}
		if e.Source {
			if !e.FiredThisIteration {
				return e
			}
			s.SetState(e, stafilos.Waiting)
			continue
		}
		if !e.HasEvents() {
			s.reevaluate(e)
			continue
		}
		return e
	}
}

// Claim implements stafilos.Scheduler: the shared skip-busy claim
// over RB's highest-rate order. RB keeps sources inside the active queue, so
// ClaimRunnable's parking covers them too.
func (s *RB) Claim() *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.ClaimRunnable(s.nextActorLocked)
}

// ActorFired implements stafilos.Scheduler.
func (s *RB) ActorFired(e *stafilos.Entry, cost time.Duration, produced int) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if e.Source {
		e.FiredThisIteration = true
	} else {
		s.internalFirings++
	}
	s.reevaluate(e)
}

// IterationBegin implements stafilos.Scheduler: a new period starts and
// sources become eligible again.
func (s *RB) IterationBegin() {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, e := range s.Sources {
		e.FiredThisIteration = false
		s.reevaluate(e)
	}
}

// IterationEnd implements stafilos.Scheduler: the period is over — move the
// next-period buffers into the actors' queues and re-evaluate the dynamic
// priorities from the runtime statistics.
func (s *RB) IterationEnd() {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, e := range s.Entries {
		e.ReleaseBuffer()
	}
	s.recomputePriorities()
	for _, e := range s.Entries {
		if e.Source {
			continue
		}
		s.reevaluate(e)
	}
}

// globalMetric carries an actor's global selectivity and cost.
type globalMetric struct{ sel, cost float64 }

// recomputePriorities walks the workflow graph computing, for every actor,
// its global selectivity S and global cost C over downstream paths:
//
//	S(A) = s_A                      for output actors
//	S(A) = s_A · Σ_d S(d)           over downstream actors d
//	C(A) = c_A + s_A · Σ_d C(d)
//
// and sets Pr(A) = S(A)/C(A).
func (s *RB) recomputePriorities() {
	if s.Env == nil || s.Env.WF == nil || s.Env.Stats == nil {
		return
	}
	snap := s.Env.Stats.Snapshot()
	memo := make(map[string]globalMetric, len(s.Entries))
	inProgress := make(map[string]bool)

	var visit func(a model.Actor) globalMetric
	visit = func(a model.Actor) globalMetric {
		name := a.Name()
		if g, ok := memo[name]; ok {
			return g
		}
		if inProgress[name] {
			// Cycle guard: treat a back-edge as an output boundary.
			st := snap[name]
			return globalMetric{sel: st.Selectivity(), cost: maxf(st.Cost(), minCostSeconds)}
		}
		inProgress[name] = true
		st := snap[name]
		sel := st.Selectivity()
		cost := maxf(st.Cost(), minCostSeconds)
		downs := s.Env.WF.Downstream(a)
		g := globalMetric{sel: sel, cost: cost}
		if len(downs) > 0 {
			var sumS, sumC float64
			for _, d := range downs {
				dg := visit(d)
				sumS += dg.sel
				sumC += dg.cost
			}
			g.sel = sel * sumS
			g.cost = cost + sel*sumC
		}
		delete(inProgress, name)
		memo[name] = g
		return g
	}

	for _, e := range s.Entries {
		g := visit(e.Actor)
		if g.cost <= 0 {
			g.cost = minCostSeconds
		}
		e.DynPriority = g.sel / g.cost
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
