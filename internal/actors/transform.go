package actors

import (
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// Func is the general single-input, single-output actor: each firing hands
// the consumed window and an emit callback to a user function, which
// borrows the window, its Events slice and its events for the firing only
// (see Sink). Most workflow logic is expressed with Func or one of its
// specializations below.
type Func struct {
	model.Base
	in, out *model.Port
	fn      func(ctx *model.FireContext, w *window.Window, emit func(value.Value)) error
	// emit is the reusable emission closure handed to fn: it reads emitCtx
	// at call time, so one closure allocation at construction serves every
	// firing (a per-Fire closure literal would allocate on the hot path).
	emit    func(value.Value)
	emitCtx *model.FireContext
}

// NewFunc builds a Func actor whose input applies the given window
// semantics.
func NewFunc(name string, spec window.Spec, fn func(ctx *model.FireContext, w *window.Window, emit func(value.Value)) error) *Func {
	a := &Func{Base: model.NewBase(name), fn: fn}
	a.Bind(a)
	a.in = a.WindowedInput("in", spec)
	a.out = a.Output("out")
	a.emit = func(v value.Value) { a.emitCtx.Put(a.out, v) }
	return a
}

// In returns the input port.
func (a *Func) In() *model.Port { return a.in }

// Out returns the output port.
func (a *Func) Out() *model.Port { return a.out }

// Fire implements model.Actor.
//
//confvet:hotpath
func (a *Func) Fire(ctx *model.FireContext) error {
	w := ctx.Window(a.in)
	if w == nil {
		return nil
	}
	a.emitCtx = ctx
	return a.fn(ctx, w, a.emit)
}

// NewMap builds an actor applying f to every token.
func NewMap(name string, f func(value.Value) value.Value) *Func {
	return NewFunc(name, window.Passthrough(), func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
		// Iterate the events directly: Tokens() materializes a fresh slice
		// per firing, which the zero-alloc firing loop cannot afford.
		for _, ev := range w.Events {
			emit(f(ev.Token))
		}
		return nil
	})
}

// NewFilter builds an actor passing through tokens satisfying pred.
func NewFilter(name string, pred func(value.Value) bool) *Func {
	return NewFunc(name, window.Passthrough(), func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
		for _, ev := range w.Events {
			if pred(ev.Token) {
				emit(ev.Token)
			}
		}
		return nil
	})
}

// NewAggregate builds an actor that reduces each window to one token with
// agg; a nil result emits nothing.
func NewAggregate(name string, spec window.Spec, agg func(w *window.Window) value.Value) *Func {
	return NewFunc(name, spec, func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
		if v := agg(w); v != nil {
			emit(v)
		}
		return nil
	})
}

// Sink consumes windows with a callback and produces nothing. The window
// and its events are borrowed for the callback only: every director recycles
// them once the firing is over, and the receiver builds its next windows
// from the recycled shell and its Events backing, so a callback keeps tokens
// (as Collect does), never the window, its Events slice or an event.
type Sink struct {
	model.Base
	in *model.Port
	fn func(ctx *model.FireContext, w *window.Window) error
}

// NewSink builds a sink actor.
func NewSink(name string, spec window.Spec, fn func(ctx *model.FireContext, w *window.Window) error) *Sink {
	a := &Sink{Base: model.NewBase(name), fn: fn}
	a.Bind(a)
	a.in = a.WindowedInput("in", spec)
	return a
}

// In returns the sink's input port.
func (a *Sink) In() *model.Port { return a.in }

// Fire implements model.Actor.
func (a *Sink) Fire(ctx *model.FireContext) error {
	w := ctx.Window(a.in)
	if w == nil {
		return nil
	}
	return a.fn(ctx, w)
}

// Collect is a sink that appends every consumed token to a slice, for
// tests and examples.
type Collect struct {
	*Sink
	Tokens []value.Value
}

// NewCollect builds a collecting sink with passthrough semantics.
func NewCollect(name string) *Collect {
	c := &Collect{}
	c.Sink = NewSink(name, window.Passthrough(), func(_ *model.FireContext, w *window.Window) error {
		c.Tokens = append(c.Tokens, w.Tokens()...)
		return nil
	})
	return c
}
