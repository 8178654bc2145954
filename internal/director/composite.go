package director

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/window"
)

// MoC is the model of computation a composite's inner workflow runs under
// (Table 1). Both fire inner actors with a ready window, pass after pass,
// until a pass makes no progress; they differ only in the order a pass
// walks.
type MoC uint8

const (
	// DDF (dynamic dataflow) visits each inner actor once per pass,
	// accommodating decision points and non-constant production rates (the
	// paper uses it for the Linear Road sub-workflows with fluid rates).
	DDF MoC = iota
	// SDF (synchronous dataflow) assumes constant port rates: Initialize
	// solves the balance equations for a repetition vector, rejecting
	// inconsistent graphs, and a pass walks each actor as many times as
	// its repetition count.
	SDF
)

// String names the model of computation.
func (m MoC) String() string {
	if m == SDF {
		return "SDF"
	}
	return "DDF"
}

// Composite is an opaque composite actor: a sub-workflow run under its own
// model of computation (SDF or DDF), appearing to the enclosing workflow as
// a single actor. The Linear Road implementation's second hierarchy level —
// stopped-car detection, accident detection, segment statistics — is built
// from composites (Appendix A, Figures 11–15).
//
// External input ports carry the window semantics; each firing injects the
// consumed windows into the bound inner ports, runs the inner workflow to
// quiescence, and forwards emissions from bound inner output ports to the
// composite's external outputs.
type Composite struct {
	model.Base
	inner *model.Workflow
	moc   MoC

	inBind  []inBinding                 // in external-port declaration order
	outBind map[*model.Port]*model.Port // inner output -> external output

	// pass is the order one pass walks, resolved by Initialize.
	pass    []step
	scratch []*event.Event
}

// inBinding is one external input and the inner inputs its window is
// injected into; Initialize resolves their receivers.
type inBinding struct {
	ext   *model.Port
	inner []*model.Port
	recvs []*queueReceiver
}

// step is one actor's slot in a pass: the actor, its firing context and
// its input receivers. Under SDF an actor's slots share one context.
type step struct {
	a   model.Actor
	ctx *model.FireContext
	ins []*queueReceiver
}

// NewComposite builds a composite actor around an inner workflow run under
// moc.
func NewComposite(name string, inner *model.Workflow, moc MoC) *Composite {
	c := &Composite{
		inner:   inner,
		moc:     moc,
		outBind: make(map[*model.Port]*model.Port),
	}
	c.Base = model.NewBase(name)
	c.Bind(c)
	return c
}

// Inner returns the sub-workflow.
func (c *Composite) Inner() *model.Workflow { return c.inner }

// BoundInputs implements model.OpaqueComposite: the inner input ports an
// external input injects into.
func (c *Composite) BoundInputs(ext *model.Port) []*model.Port {
	for _, b := range c.inBind {
		if b.ext == ext {
			return b.inner
		}
	}
	return nil
}

// BoundOutput implements model.OpaqueComposite: the inner output port whose
// emissions the external output forwards, or nil when unbound.
func (c *Composite) BoundOutput(ext *model.Port) *model.Port {
	for inner, e := range c.outBind {
		if e == ext {
			return inner
		}
	}
	return nil
}

var _ model.OpaqueComposite = (*Composite)(nil)

// AddInput declares an external input port with the given window semantics
// and binds it to inner input ports; the consumed window is injected into
// each of them pre-formed (inner specs on bound ports are bypassed).
func (c *Composite) AddInput(name string, spec window.Spec, inner ...*model.Port) *model.Port {
	ext := c.WindowedInput(name, spec)
	c.inBind = append(c.inBind, inBinding{ext: ext, inner: inner})
	return ext
}

// AddOutput declares an external output port forwarding the given inner
// output port's emissions.
func (c *Composite) AddOutput(name string, innerOut *model.Port) *model.Port {
	ext := c.Output(name)
	c.outBind[innerOut] = ext
	return ext
}

// Initialize implements model.Actor: it installs a queueReceiver on every
// inner input port, initializes the inner actors, and resolves once what a
// firing walks — the receivers each external input injects into, and the
// pass order with each actor's context and input receivers.
func (c *Composite) Initialize(ctx *model.FireContext) error {
	for _, b := range c.inBind {
		if len(b.inner) == 0 {
			return fmt.Errorf("director: composite %s input %s bound to nothing", c.Name(), b.ext.Name())
		}
	}
	if err := c.inner.Validate(); err != nil {
		return err
	}
	clk := ctx.Clock()
	recvs := make(map[*model.Port]*queueReceiver)
	for _, p := range c.inner.InputPorts() {
		r := &queueReceiver{port: p, op: window.New(p.Spec()), clk: clk}
		p.SetReceiver(r)
		recvs[p] = r
	}
	for i := range c.inBind {
		b := &c.inBind[i]
		b.recvs = b.recvs[:0]
		for _, p := range b.inner {
			r, ok := recvs[p]
			if !ok {
				return fmt.Errorf("director: composite %s input %s bound to %s, outside its inner workflow",
					c.Name(), b.ext.Name(), p.FullName())
			}
			b.recvs = append(b.recvs, r)
		}
	}
	var pass []step
	for _, a := range c.inner.Actors() {
		s := step{a: a, ctx: model.NewFireContext(clk, event.NewTimekeeper())}
		for _, p := range a.Inputs() {
			s.ins = append(s.ins, recvs[p])
		}
		if err := a.Initialize(s.ctx); err != nil {
			return fmt.Errorf("director: composite %s initialize %s: %w", c.Name(), a.Name(), err)
		}
		pass = append(pass, s)
	}
	if c.moc == SDF {
		reps, err := solveBalance(c.inner)
		if err != nil {
			return err
		}
		var schedule []step
		for _, s := range pass {
			for range reps[s.a.Name()] {
				schedule = append(schedule, s)
			}
		}
		pass = schedule
	}
	c.pass = pass
	return nil
}

// Fire implements model.Actor: inject the consumed windows in external-port
// declaration order, then fire the inner actors that have a ready window,
// pass after pass, until a full pass makes no progress.
func (c *Composite) Fire(ctx *model.FireContext) error {
	for _, b := range c.inBind {
		if w := ctx.Window(b.ext); w != nil {
			for _, r := range b.recvs {
				r.ready.push(w)
			}
		}
	}
	for progress := true; progress; {
		progress = false
		for i := range c.pass {
			s := &c.pass[i]
			for _, r := range s.ins {
				if r.ready.len() == 0 {
					continue
				}
				if err := c.fire(ctx, s, r.port, r.ready.pop()); err != nil {
					return err
				}
				progress = true
			}
		}
	}
	return nil
}

// fire runs one inner firing of s on window w of port p. Emissions of a
// bound inner output go to its external output on the outer firing ctx;
// the rest are delivered inside.
func (c *Composite) fire(ctx *model.FireContext, s *step, p *model.Port, w *window.Window) error {
	var trigger *event.Event
	if n := w.Len(); n > 0 {
		trigger = w.Events[n-1]
	}
	s.ctx.BeginFiring(trigger)
	s.ctx.Stage(p, w)
	if err := model.Invoke(s.a, s.ctx); err != nil {
		return err
	}
	// Filter forwarded emissions in place (the slice is ours until the next
	// BeginFiring), then deliver the remainder batched.
	emissions := s.ctx.EndFiring()
	keep := emissions[:0]
	for _, em := range emissions {
		ext, ok := c.outBind[em.Port]
		if !ok {
			keep = append(keep, em)
			continue
		}
		// Forward with the original event timestamp so response times
		// trace back to the external event that started the wave.
		ctx.PutAt(ext, em.Ev.Token, em.Ev.Time)
	}
	c.scratch = model.BroadcastEmissions(keep, c.scratch)
	return nil
}

// queueReceiver is the plain FIFO windowed receiver on a composite's inner
// input ports: produced and injected windows queue up until the composite's
// pass fires the owning actor.
type queueReceiver struct {
	port  *model.Port
	op    *window.Operator
	ready readyQueue
	clk   clock.Clock
}

// Put implements model.Receiver.
func (r *queueReceiver) Put(ev *event.Event) {
	ws := r.op.Put(ev, r.clk.Now())
	r.op.DrainExpired()
	r.ready.push(ws...)
}

// PutBatch implements model.BatchReceiver: one window-operator sweep and
// one expired-queue drain for the whole emission set.
func (r *queueReceiver) PutBatch(evs []*event.Event) {
	now := r.clk.Now()
	for _, ev := range evs {
		r.ready.push(r.op.Put(ev, now)...)
	}
	r.op.DrainExpired()
}

// readyQueue is a FIFO of produced windows awaiting their consumer, popped
// through a head index. A pop nils the vacated slot so the consumed window
// becomes collectable; the queue resets once it empties and compacts once
// the dead prefix is at least 32 slots and half the queue, so its backing
// array is reused instead of outgrown.
type readyQueue struct {
	q    []*window.Window
	head int
}

func (f *readyQueue) len() int { return len(f.q) - f.head }

func (f *readyQueue) push(ws ...*window.Window) { f.q = append(f.q, ws...) }

// pop dequeues the oldest window; the queue must not be empty.
func (f *readyQueue) pop() *window.Window {
	w := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	switch {
	case f.head == len(f.q):
		f.q = f.q[:0]
		f.head = 0
	case f.head >= 32 && f.head*2 >= len(f.q):
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	return w
}

// RatedActor lets SDF actors declare non-unit port rates (tokens consumed
// or produced per firing). Actors without it default to rate 1 on every
// connected port.
type RatedActor interface {
	Rate(p *model.Port) int
}

// rate returns the token rate of port p for actor a (default 1).
func rate(a model.Actor, p *model.Port) int {
	if ra, ok := a.(RatedActor); ok {
		if r := ra.Rate(p); r > 0 {
			return r
		}
	}
	return 1
}

// fraction is a rational number for the balance-equation solver.
type fraction struct{ num, den int }

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func (f fraction) reduce() fraction {
	g := gcd(f.num, f.den)
	return fraction{f.num / g, f.den / g}
}

func (f fraction) mul(n, d int) fraction {
	return fraction{f.num * n, f.den * d}.reduce()
}

func (f fraction) equal(o fraction) bool {
	a, b := f.reduce(), o.reduce()
	return a.num == b.num && a.den == b.den
}

// solveBalance computes the minimal integer repetition vector satisfying
// r(a)·prod(a,ch) = r(b)·cons(b,ch) for every channel, per connected
// component.
func solveBalance(wf *model.Workflow) (map[string]int, error) {
	fracs := map[string]fraction{}
	var assign func(a model.Actor, f fraction) error
	assign = func(a model.Actor, f fraction) error {
		if got, ok := fracs[a.Name()]; ok {
			if !got.equal(f) {
				return fmt.Errorf("director: SDF balance equations inconsistent at %s", a.Name())
			}
			return nil
		}
		fracs[a.Name()] = f.reduce()
		for _, p := range a.Outputs() {
			prod := rate(a, p)
			for _, dst := range p.Destinations() {
				cons := rate(dst.Owner(), dst)
				// r(dst) = r(a) * prod / cons
				if err := assign(wf.Actor(dst.Owner().Name()), f.mul(prod, cons)); err != nil {
					return err
				}
			}
		}
		for _, p := range a.Inputs() {
			cons := rate(a, p)
			for _, src := range p.Sources() {
				prod := rate(src.Owner(), src)
				// r(src) = r(a) * cons / prod
				if err := assign(wf.Actor(src.Owner().Name()), f.mul(cons, prod)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, a := range wf.Actors() {
		if _, done := fracs[a.Name()]; !done {
			if err := assign(a, fraction{1, 1}); err != nil {
				return nil, err
			}
		}
	}
	// Scale each connected solution to integers: multiply by LCM of
	// denominators, divide by GCD of numerators. A single global scaling
	// is fine since components were seeded independently at 1.
	lcm := 1
	for _, f := range fracs {
		lcm = lcm / gcd(lcm, f.den) * f.den
	}
	reps := map[string]int{}
	g := 0
	for name, f := range fracs {
		v := f.num * (lcm / f.den)
		reps[name] = v
		g = gcd(g, v)
	}
	if g == 0 {
		g = 1
	}
	for name := range reps {
		reps[name] /= g
	}
	return reps, nil
}
