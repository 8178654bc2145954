package director

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/window"
)

// queueReceiver is the plain FIFO windowed receiver used inside composite
// actors: produced windows queue up until the inside director fires the
// owning actor.
type queueReceiver struct {
	port  *model.Port
	op    *window.Operator
	ready readyQueue
	clk   clock.Clock
}

func newQueueReceiver(p *model.Port, clk clock.Clock) *queueReceiver {
	return &queueReceiver{port: p, op: window.New(p.Spec()), clk: clk}
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

// inject delivers a pre-formed window (from the composite's external port).
func (r *queueReceiver) inject(w *window.Window) { r.ready.push(w) }

func (r *queueReceiver) pop() (*window.Window, bool) {
	if r.ready.len() == 0 {
		return nil, false
	}
	return r.ready.pop(), true
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

// EmitHook intercepts an inner actor's emission; returning true consumes it
// (the composite forwards it to an external output port).
type EmitHook func(em model.Emission) bool

// InsideDirector governs a sub-workflow executed within a composite actor's
// firing: DDF for fluid consumption/production rates, SDF for static ones.
type InsideDirector interface {
	// Name identifies the model of computation.
	Name() string
	// Setup installs receivers and initializes the inner actors.
	Setup(wf *model.Workflow, clk clock.Clock) error
	// Inject stages a pre-formed window on an inner input port.
	Inject(p *model.Port, w *window.Window)
	// RunToQuiescence fires inner actors until no window is ready.
	RunToQuiescence(hook EmitHook) error
}

// DDF is the dynamic dataflow inside-director: it repeatedly fires any
// actor with a ready window until quiescence, accommodating decision points
// and non-constant production rates (the paper uses it for the Linear Road
// sub-workflows with fluid rates).
type DDF struct {
	wf      *model.Workflow
	clk     clock.Clock
	recvs   map[*model.Port]*queueReceiver
	ctxs    map[string]*model.FireContext
	scratch []*event.Event
}

// NewDDF returns a fresh DDF inside-director.
func NewDDF() *DDF { return &DDF{} }

// Name implements InsideDirector.
func (d *DDF) Name() string { return "DDF" }

// Setup implements InsideDirector.
func (d *DDF) Setup(wf *model.Workflow, clk clock.Clock) error {
	if err := wf.Validate(); err != nil {
		return err
	}
	d.wf = wf
	d.clk = clk
	d.recvs = make(map[*model.Port]*queueReceiver)
	for _, p := range wf.InputPorts() {
		r := newQueueReceiver(p, clk)
		p.SetReceiver(r)
		d.recvs[p] = r
	}
	d.ctxs = make(map[string]*model.FireContext)
	for _, a := range wf.Actors() {
		ctx := model.NewFireContext(clk, event.NewTimekeeper())
		d.ctxs[a.Name()] = ctx
		if err := a.Initialize(ctx); err != nil {
			return fmt.Errorf("director: DDF initialize %s: %w", a.Name(), err)
		}
	}
	return nil
}

// Inject implements InsideDirector.
func (d *DDF) Inject(p *model.Port, w *window.Window) {
	if r, ok := d.recvs[p]; ok {
		r.inject(w)
	}
}

// RunToQuiescence implements InsideDirector.
func (d *DDF) RunToQuiescence(hook EmitHook) error {
	return d.runToQuiescence(d.wf.Actors(), hook)
}

// runToQuiescence fires the actors of order that have a ready window, pass
// after pass, until a full pass makes no progress.
func (d *DDF) runToQuiescence(order []model.Actor, hook EmitHook) error {
	for {
		progress := false
		for _, a := range order {
			for _, p := range a.Inputs() {
				r := d.recvs[p]
				if r == nil {
					continue
				}
				w, ok := r.pop()
				if !ok {
					continue
				}
				if err := d.fire(a, p, w, hook); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

func (d *DDF) fire(a model.Actor, p *model.Port, w *window.Window, hook EmitHook) error {
	ctx := d.ctxs[a.Name()]
	var trigger *event.Event
	if n := w.Len(); n > 0 {
		trigger = w.Events[n-1]
	}
	ctx.BeginFiring(trigger)
	ctx.Stage(p, w)
	if err := model.Invoke(a, ctx); err != nil {
		return err
	}
	emissions := ctx.EndFiring()
	if hook != nil {
		// Filter consumed emissions in place (the slice is ours until the
		// next BeginFiring), then deliver the remainder batched.
		keep := emissions[:0]
		for _, em := range emissions {
			if !hook(em) {
				keep = append(keep, em)
			}
		}
		emissions = keep
	}
	d.scratch = model.BroadcastEmissions(emissions, d.scratch)
	return nil
}

// SDF is the synchronous dataflow inside-director: actor consumption and
// production rates are constant, so a repetition vector is pre-compiled
// from the balance equations at setup. At runtime it executes the schedule,
// skipping actors whose inputs are not yet available.
type SDF struct {
	*DDF
	repetitions map[string]int
	schedule    []model.Actor
}

// RatedActor lets SDF actors declare non-unit port rates (tokens consumed
// or produced per firing). Actors without it default to rate 1 on every
// connected port.
type RatedActor interface {
	Rate(p *model.Port) int
}

// NewSDF returns a fresh SDF inside-director.
func NewSDF() *SDF { return &SDF{DDF: NewDDF()} }

// Name implements InsideDirector.
func (d *SDF) Name() string { return "SDF" }

// Setup implements InsideDirector: it additionally solves the balance
// equations, rejecting inconsistent (unschedulable) graphs.
func (d *SDF) Setup(wf *model.Workflow, clk clock.Clock) error {
	if err := d.DDF.Setup(wf, clk); err != nil {
		return err
	}
	reps, err := solveBalance(wf)
	if err != nil {
		return err
	}
	d.repetitions = reps
	for _, a := range wf.Actors() {
		for i := 0; i < reps[a.Name()]; i++ {
			d.schedule = append(d.schedule, a)
		}
	}
	return nil
}

// Repetitions exposes the solved repetition vector.
func (d *SDF) Repetitions() map[string]int { return d.repetitions }

// RunToQuiescence implements InsideDirector: run the pre-compiled schedule
// repeatedly until a full pass makes no progress.
func (d *SDF) RunToQuiescence(hook EmitHook) error {
	return d.runToQuiescence(d.schedule, hook)
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
