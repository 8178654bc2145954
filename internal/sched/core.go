// Package sched provides the scheduling policies implemented within the
// STAFiLOS framework: the paper's three case studies — the Quantum Priority
// Based scheduler (QBS), the Round-Robin scheduler (RR) and the Rate Based
// scheduler (RB) — plus FIFO, LQF and EDF policies that further exercise
// the framework's pluggability.
//
// Every policy satisfies the stafilos.Scheduler concurrency contract: the
// exported Scheduler methods take the policy lock internally, so parallel
// workers call Enqueue, Claim and ActorFired directly — no engine-wide lock
// exists around the scheduler.
package sched

import (
	"time"

	"repro/internal/model"
	"repro/internal/stafilos"
)

// quantumCore factors the machinery QBS and RR share: quantum accounting,
// the active/waiting queue swap at re-quantification, and interval-based
// source scheduling. The two policies differ only in their comparator
// (priority vs. FIFO) and their quantum assignment.
//
// Locking: the exported Scheduler methods take Base.Mu and delegate to the
// unexported *Locked layer; everything below the exported surface assumes
// the lock is held.
type quantumCore struct {
	*stafilos.Base
	name string
	// quantumFor computes the quantum granted to an entry at registration
	// and at each re-quantification.
	quantumFor func(e *stafilos.Entry) time.Duration
	// resetOnActivate replaces (rather than preserves) the quantum when an
	// inactive actor receives new events (RR assigns a fresh slice; QBS
	// preserves the old quantum).
	resetOnActivate bool
}

func newQuantumCore(name string, less stafilos.Comparator) *quantumCore {
	return &quantumCore{Base: stafilos.NewBase(less), name: name}
}

// Name implements stafilos.Scheduler.
func (s *quantumCore) Name() string { return s.name }

// Init implements stafilos.Scheduler.
func (s *quantumCore) Init(env *stafilos.Env) error { return s.Base.Init(env) }

// Register implements stafilos.Scheduler, granting the initial quantum.
func (s *quantumCore) Register(a model.Actor, source bool) *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.registerLocked(a, source)
}

func (s *quantumCore) registerLocked(a model.Actor, source bool) *stafilos.Entry {
	e := s.Base.Register(a, source)
	e.Quantum = s.quantumFor(e)
	return e
}

// Enqueue implements stafilos.Scheduler: push the window to the actor's
// sorted event queue and re-evaluate its state per Table 2. Receivers call
// it from any worker; the policy lock serializes the state update.
func (s *quantumCore) Enqueue(item stafilos.ReadyItem) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	e := s.Entry(item.Actor)
	if e == nil {
		e = s.registerLocked(item.Actor, false)
	}
	wasInactive := e.State == stafilos.Inactive
	e.Push(item)
	if wasInactive && s.resetOnActivate {
		e.Quantum = s.quantumFor(e)
	}
	s.reevaluate(e)
}

// EnqueueBatch implements stafilos.BatchEnqueuer: a whole receiver drain
// pays one policy-lock acquisition, one queue-lock acquisition and one
// state re-evaluation per actor run. Equivalent to item-wise Enqueue —
// the post-batch state is a function of the final queue content, the
// quantum reset fires on the same inactive→active edge, and the policy
// lock is held throughout, so no interleaving can observe a difference.
func (s *quantumCore) EnqueueBatch(items []stafilos.ReadyItem) {
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
		wasInactive := e.State == stafilos.Inactive
		e.PushBatch(items[i:j])
		if wasInactive && s.resetOnActivate {
			e.Quantum = s.quantumFor(e)
		}
		s.reevaluate(e)
		i = j
	}
}

// reevaluate applies the QBS/RR state conditions of Table 2 to a non-source
// actor. Called with the policy lock held.
func (s *quantumCore) reevaluate(e *stafilos.Entry) {
	if e.Source {
		s.reevaluateSource(e)
		return
	}
	switch {
	case !e.HasEvents():
		// No events: INACTIVE, quantum preserved until new events arrive.
		s.SetState(e, stafilos.Inactive)
	case e.Quantum > 0:
		s.SetState(e, stafilos.Active)
	default:
		s.SetState(e, stafilos.Waiting)
	}
}

// reevaluateSource applies the source column of Table 2: ACTIVE while it
// has a positive quantum and has not fired in the current director
// iteration; WAITING otherwise. Sources never become INACTIVE. QBS/RR treat
// sources independently of the rest of the actors — they are scheduled by
// the source interval, not through the active priority queue — so their
// state is tracked without queue membership.
func (s *quantumCore) reevaluateSource(e *stafilos.Entry) {
	s.ActiveQ.Remove(e)
	s.WaitingQ.Remove(e)
	if e.Quantum > 0 && !e.FiredThisIteration {
		e.State = stafilos.Active
	} else {
		e.State = stafilos.Waiting
	}
}

// NextActor implements stafilos.Scheduler. Interval-based source
// scheduling runs a source after every Env.SourceInterval internal firings,
// regulating how data enters the workflow; otherwise the head of the active
// priority queue runs. When no internal actor is runnable, an eligible
// source runs so input keeps flowing.
func (s *quantumCore) NextActor() *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.nextActorLocked()
}

func (s *quantumCore) nextActorLocked() *stafilos.Entry {
	if s.sourceDue() {
		if e := s.eligibleSource(); e != nil {
			return e
		}
	}
	for {
		e := s.ActiveQ.Peek()
		if e == nil {
			return s.eligibleSource()
		}
		if !e.HasEvents() {
			s.SetState(e, stafilos.Inactive)
			continue
		}
		if e.Quantum <= 0 {
			s.SetState(e, stafilos.Waiting)
			continue
		}
		return e
	}
}

// Claim implements stafilos.Scheduler: the shared skip-busy claim
// over this policy's NextActor order.
func (s *quantumCore) Claim() *stafilos.Entry {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.ClaimRunnable(s.nextActorLocked)
}

func (s *quantumCore) sourceDue() bool {
	return s.Env != nil && s.Env.SourceInterval > 0 &&
		s.InternalSinceSource >= s.Env.SourceInterval
}

// eligibleSource returns a source that may run now. Sources live outside
// the active queue, so the claim loop cannot park a busy one — skip
// mid-firing sources here instead (no-op under sequential execution, where
// nothing is ever marked firing).
func (s *quantumCore) eligibleSource() *stafilos.Entry {
	for _, e := range s.Sources {
		if e.Quantum > 0 && !e.FiredThisIteration {
			if e.Firing() {
				s.Observer().ParkObserved(e.Actor.Name())
				continue
			}
			return e
		}
	}
	return nil
}

// ActorFired implements stafilos.Scheduler: charge the quantum and apply
// the state transition rules.
func (s *quantumCore) ActorFired(e *stafilos.Entry, cost time.Duration, produced int) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	e.Quantum -= cost
	if e.Source {
		e.FiredThisIteration = true
		s.ResetSourceGate()
		s.reevaluateSource(e)
		return
	}
	s.InternalSinceSource++
	s.reevaluate(e)
}

// IterationBegin implements stafilos.Scheduler: sources become eligible
// again for the new director iteration.
func (s *quantumCore) IterationBegin() {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, e := range s.Sources {
		e.FiredThisIteration = false
		s.reevaluateSource(e)
	}
}

// IterationEnd implements stafilos.Scheduler: once all actors with events
// have run out of quanta, re-quantify — each waiting entry and each source
// accumulates a fresh quantum on top of whatever (possibly negative)
// allowance remains — and swap the queues. Entries whose quantum is still
// not positive stay in the waiting queue.
func (s *quantumCore) IterationEnd() {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, e := range s.WaitingQ.Drain() {
		s.requantify(e)
	}
	for _, e := range s.Sources {
		s.requantify(e)
	}
	// Re-place everything according to its post-requantification state.
	for _, e := range s.Entries {
		if e.State == stafilos.Inactive {
			continue
		}
		s.reevaluate(e)
	}
}

// requantify grants a fresh quantum. Internal actors accumulate it on top
// of their (non-positive) remainder — the Linux-style carry-over that
// DESIGN.md's D4 pins down. Sources with allowance left keep it unchanged
// so idle sources do not hoard unbounded quantum.
func (s *quantumCore) requantify(e *stafilos.Entry) {
	if e.Source && e.Quantum > 0 {
		return
	}
	e.Quantum += s.quantumFor(e)
}
