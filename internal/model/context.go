package model

import (
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/value"
	"repro/internal/window"
)

// Emission is one token produced during a firing, already stamped into an
// event whose wave-tag the director finalizes at end of firing.
type Emission struct {
	Port *Port
	Ev   *event.Event
}

// BroadcastEmissions delivers a firing's finalized emission set through the
// batched transport: contiguous runs on the same output port become one
// BroadcastBatch call. scratch is a reusable event buffer owned by the
// caller (one per dispatch loop); the possibly-grown buffer is returned for
// the next firing. Receivers do not retain it.
func BroadcastEmissions(emissions []Emission, scratch []*event.Event) []*event.Event {
	for i := 0; i < len(emissions); {
		j := i + 1
		for j < len(emissions) && emissions[j].Port == emissions[i].Port {
			j++
		}
		scratch = scratch[:0]
		for _, em := range emissions[i:j] {
			scratch = append(scratch, em.Ev)
		}
		emissions[i].Port.BroadcastBatch(scratch)
		i = j
	}
	return scratch
}

// FireContext carries everything an actor may touch during one lifecycle
// call. Directors construct one per firing (or reuse one per actor), stage
// the input window the firing consumes, and collect the emissions.
// stagedWindow is one input-port→window binding of the current firing.
type stagedWindow struct {
	port *Port
	win  *window.Window
}

type FireContext struct {
	clk clock.Clock
	tk  *event.Timekeeper

	// staged holds the windows delivered for this firing, keyed by input
	// port. Firings stage one or two windows, so a reused linear slice
	// beats a map on the hot path (no hashing, no per-firing map clearing).
	staged []stagedWindow
	// puller, when set, fetches a window on demand (blocking directors).
	puller func(*Port) (*window.Window, bool)
	// emissions are the tokens produced so far in this firing.
	emissions []Emission
	// inWave is true while a firing with a triggering event is open: what
	// Put stamps then takes the trigger's time, and needs no clock read.
	inWave bool
	// stopped is set by StopWorkflow.
	stopped bool
}

// NewFireContext builds a context bound to a clock and a timekeeper.
func NewFireContext(clk clock.Clock, tk *event.Timekeeper) *FireContext {
	return &FireContext{clk: clk, tk: tk}
}

// Timekeeper returns the context's timekeeper (directors wire its pool).
func (c *FireContext) Timekeeper() *event.Timekeeper { return c.tk }

// clearStaged empties the staged bindings, dropping the window references
// while keeping the slice capacity.
func (c *FireContext) clearStaged() {
	for i := range c.staged {
		c.staged[i] = stagedWindow{}
	}
	c.staged = c.staged[:0]
}

// Reset returns the context to a like-new state so it can be pooled and
// reused across firings of different actors: staged windows, pending
// emissions, the pull hook and the stop latch are cleared, and the
// timekeeper abandons any half-open firing (a panicked Fire may have left
// one).
func (c *FireContext) Reset() {
	c.tk.Reset()
	c.clearStaged()
	c.emissions = c.emissions[:0]
	c.inWave = false
	c.puller = nil
	c.stopped = false
}

// Clock returns the engine clock.
func (c *FireContext) Clock() clock.Clock { return c.clk }

// Now returns the current engine time.
func (c *FireContext) Now() time.Time { return c.clk.Now() }

// SetPuller installs an on-demand window fetcher, used by blocking
// (thread-based) directors where actors pull their own inputs.
func (c *FireContext) SetPuller(f func(*Port) (*window.Window, bool)) { c.puller = f }

// Stage places a window on an input port for the upcoming firing.
//
//confvet:hotpath
func (c *FireContext) Stage(p *Port, w *window.Window) {
	for i := range c.staged {
		if c.staged[i].port == p {
			c.staged[i].win = w
			return
		}
	}
	c.staged = append(c.staged, stagedWindow{port: p, win: w})
}

// BeginFiring resets the per-firing state. The trigger event (the newest
// member of the consumed window) parents the wave-tags of everything the
// firing produces.
func (c *FireContext) BeginFiring(trigger *event.Event) {
	c.tk.BeginFiring(trigger)
	c.emissions = c.emissions[:0]
	c.inWave = trigger != nil
}

// EndFiring finalizes wave-tags and returns the emissions of the firing.
// The returned slice is valid until the next BeginFiring on this context:
// the backing array is reused across firings to keep the hot path
// allocation-free, so directors must deliver (or copy) the emissions before
// starting the next firing.
//
//confvet:hotpath
func (c *FireContext) EndFiring() []Emission {
	c.tk.FinalizeFiring()
	c.inWave = false
	out := c.emissions
	c.clearStaged()
	return out
}

// Window returns the window available on input port p for this firing. With
// a staged window it returns it; otherwise, under a blocking director, it
// pulls one (possibly blocking). It returns nil when no window is
// available, which multi-input actors use to discover which port fired.
//
//confvet:hotpath
func (c *FireContext) Window(p *Port) *window.Window {
	for i := range c.staged {
		if c.staged[i].port == p {
			return c.staged[i].win
		}
	}
	if c.puller != nil {
		if w, ok := c.puller(p); ok {
			c.Stage(p, w)
			return w
		}
	}
	return nil
}

// Has reports whether input port p has a staged window without pulling.
func (c *FireContext) Has(p *Port) bool {
	for i := range c.staged {
		if c.staged[i].port == p {
			return true
		}
	}
	return false
}

// Event returns the newest event of the window on p, or nil.
func (c *FireContext) Event(p *Port) *event.Event {
	w := c.Window(p)
	if w == nil || w.Len() == 0 {
		return nil
	}
	return w.Events[w.Len()-1]
}

// Token returns the newest token of the window on p, or nil.
func (c *FireContext) Token(p *Port) value.Value {
	ev := c.Event(p)
	if ev == nil {
		return nil
	}
	return ev.Token
}

// Record returns the newest token of the window on p as a record.
func (c *FireContext) Record(p *Port) value.Record {
	if r, ok := c.Token(p).(value.Record); ok {
		return r
	}
	return value.Record{}
}

// Put produces a token on output port p. The token is stamped into the
// current wave; delivery happens when the director ends the firing. The
// clock is read only when there is no wave to inherit a time from (a source
// firing, a timeout firing, a put outside any firing): Timekeeper.Stamp
// ignores the fallback otherwise.
func (c *FireContext) Put(p *Port, tok value.Value) {
	var fallback time.Time
	if !c.inWave {
		fallback = c.clk.Now()
	}
	ev := c.tk.Stamp(tok, fallback)
	c.emissions = append(c.emissions, Emission{Port: p, Ev: ev})
}

// PutAt produces a token carrying an explicit event timestamp; source
// actors use it to preserve external feed timestamps.
func (c *FireContext) PutAt(p *Port, tok value.Value, ts time.Time) {
	ev := c.tk.Stamp(tok, ts)
	c.emissions = append(c.emissions, Emission{Port: p, Ev: ev})
}

// PutEvent re-emits an existing event unchanged, preserving its timestamp
// and wave identity; remote-bridge receivers use it so waves survive node
// boundaries. The event bypasses the timekeeper's wave re-tagging. Re-
// emission gives the event a second life beyond the edge it arrived on, so
// it is pinned out of the recycling protocol.
func (c *FireContext) PutEvent(p *Port, ev *event.Event) {
	ev.Pin()
	c.emissions = append(c.emissions, Emission{Port: p, Ev: ev})
}

// StopWorkflow asks the director to end the whole execution after this
// firing (used by sinks that detect end-of-experiment).
func (c *FireContext) StopWorkflow() { c.stopped = true }

// Stopped reports whether StopWorkflow was called.
func (c *FireContext) Stopped() bool { return c.stopped }
