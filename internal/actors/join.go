package actors

import (
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// Join is a two-stream windowed equi-join: records arriving on either side
// are matched on the key fields against the most recent records retained
// for the other side, and matches are emitted through combine. Retention is
// a per-side, per-key count — the symmetric-hash-join shape continuous
// queries use, expressed as a CWf actor.
type Join struct {
	model.Base
	left, right *model.Port
	out         *model.Port
	on          []string
	combine     func(l, r value.Record) value.Value
	retainL     int
	retainR     int

	leftState  map[string][]value.Record
	rightState map[string][]value.Record
}

// NewJoin builds a join actor. on lists the record fields both sides must
// agree on; retainLeft/retainRight bound how many recent records per key
// each side keeps (≤0 means 1); combine merges a matching pair (return nil
// to drop the pair).
func NewJoin(name string, on []string, retainLeft, retainRight int,
	combine func(l, r value.Record) value.Value) *Join {
	if retainLeft <= 0 {
		retainLeft = 1
	}
	if retainRight <= 0 {
		retainRight = 1
	}
	a := &Join{
		Base:       model.NewBase(name),
		on:         on,
		combine:    combine,
		retainL:    retainLeft,
		retainR:    retainRight,
		leftState:  map[string][]value.Record{},
		rightState: map[string][]value.Record{},
	}
	a.Bind(a)
	a.left = a.WindowedInput("left", window.Passthrough())
	a.right = a.WindowedInput("right", window.Passthrough())
	a.out = a.Output("out")
	return a
}

// Left returns the left input port.
func (a *Join) Left() *model.Port { return a.left }

// Right returns the right input port.
func (a *Join) Right() *model.Port { return a.right }

// Out returns the output port.
func (a *Join) Out() *model.Port { return a.out }

// Fire implements model.Actor: exactly one side has a staged window per
// firing; its records probe the other side's state and then join it.
func (a *Join) Fire(ctx *model.FireContext) error {
	if ctx.Has(a.left) {
		if w := ctx.Window(a.left); w != nil {
			a.consume(ctx, w, a.leftState, a.rightState, a.retainL, true)
		}
	}
	if ctx.Has(a.right) {
		if w := ctx.Window(a.right); w != nil {
			a.consume(ctx, w, a.rightState, a.leftState, a.retainR, false)
		}
	}
	return nil
}

func (a *Join) consume(ctx *model.FireContext, w *window.Window,
	own, other map[string][]value.Record, retain int, ownIsLeft bool) {
	for i := range w.Len() {
		rec := w.Record(i)
		k := rec.Key(a.on...)
		// Probe the opposite side first, then insert.
		for _, match := range other[k] {
			var v value.Value
			if ownIsLeft {
				v = a.combine(rec, match)
			} else {
				v = a.combine(match, rec)
			}
			if v != nil {
				ctx.Put(a.out, v)
			}
		}
		state := append(own[k], rec)
		if len(state) > retain {
			state = state[len(state)-retain:]
		}
		own[k] = state
	}
}
