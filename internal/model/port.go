// Package model implements the actor kernel CONFLuEnCE builds on: the
// concepts the paper inherits from Kepler/PtolemyII. A workflow is a
// composition of independent actors; actors communicate through ports;
// connections between ports are channels; the receiving end of a channel has
// a receiver object provided not by the actor but by the workflow's
// controlling entity, the director. The director defines the execution and
// communication model (Table 1 of the paper); this package defines only the
// model-of-computation-independent kernel.
package model

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/value"
	"repro/internal/window"
)

// PortKind distinguishes input from output ports.
type PortKind int

const (
	// Input ports receive events; the director attaches a Receiver and a
	// window operator to each.
	Input PortKind = iota
	// Output ports broadcast events to every connected input port.
	Output
)

// String returns the kind name.
func (k PortKind) String() string {
	if k == Input {
		return "input"
	}
	return "output"
}

// Port is a named communication interface of an actor. Input ports carry
// the window semantics of the paper's active queues; output ports record
// their connected destinations.
type Port struct {
	name  string
	kind  PortKind
	owner Actor
	spec  window.Spec
	// typ constrains the token kinds the port produces (output) or accepts
	// (input) for static channel type resolution; zero means Any.
	typ value.TypeSet

	// recv is the director-installed receiver (input ports only).
	recv Receiver
	// batch is recv's batched fast path, cached at SetReceiver time so
	// BroadcastBatch does not repeat the type assertion per delivery.
	batch BatchReceiver
	// dests are the input ports this output port broadcasts to.
	dests []*Port
	// sources are the output ports feeding this input port (fan-in).
	sources []*Port
}

// Name returns the port name, unique within its actor and direction.
func (p *Port) Name() string { return p.name }

// Kind reports whether the port is an input or an output.
func (p *Port) Kind() PortKind { return p.kind }

// Owner returns the actor the port belongs to.
func (p *Port) Owner() Actor { return p.owner }

// Spec returns the input port's window semantics (Passthrough by default).
func (p *Port) Spec() window.Spec { return p.spec }

// TokenType returns the port's declared token-kind set (Any by default).
func (p *Port) TokenType() value.TypeSet { return p.typ }

// SetTokenType declares the token kinds the port emits (output) or accepts
// (input); Vet checks every channel for a non-empty intersection. It
// returns the port for declaration chaining.
func (p *Port) SetTokenType(t value.TypeSet) *Port {
	p.typ = t
	return p
}

// FullName renders "actor.port" for diagnostics.
func (p *Port) FullName() string {
	if p.owner != nil {
		return p.owner.Name() + "." + p.name
	}
	return p.name
}

// Receiver returns the installed receiver, or nil before Setup.
func (p *Port) Receiver() Receiver { return p.recv }

// SetReceiver installs the director-provided receiver on an input port.
func (p *Port) SetReceiver(r Receiver) {
	if p.kind != Input {
		panic(fmt.Sprintf("model: SetReceiver on output port %s", p.FullName()))
	}
	p.recv = r
	p.batch, _ = r.(BatchReceiver)
}

// Destinations returns the input ports connected to this output port.
func (p *Port) Destinations() []*Port { return p.dests }

// Sources returns the output ports connected into this input port.
func (p *Port) Sources() []*Port { return p.sources }

// Connected reports whether the port participates in any channel.
func (p *Port) Connected() bool {
	return len(p.dests) > 0 || len(p.sources) > 0
}

// BroadcastBatch delivers a firing's whole emission set for this port to
// every connected receiver in one call per destination: batch-capable
// receivers take the events under a single lock acquisition, plain
// receivers fall back to per-event Put. Receivers must not retain evs — the
// caller reuses the backing array across firings.
//
// Fan-out pins every event first: an event delivered to more than one
// receiver has more than one owner, so no single consumer may recycle it.
//
//confvet:hotpath
//confvet:noalloc
func (p *Port) BroadcastBatch(evs []*event.Event) {
	if len(evs) == 0 {
		return
	}
	if len(p.dests) > 1 {
		for _, ev := range evs {
			ev.Pin()
		}
	}
	for _, d := range p.dests {
		switch {
		case d.batch != nil:
			d.batch.PutBatch(evs)
		case d.recv != nil:
			for _, ev := range evs {
				d.recv.Put(ev)
			}
		}
	}
}

// Receiver controls the communication between two actors: every input port
// has one, and the director — not the actor — decides its behavior
// (blocking, windowed, scheduler-mediated, …).
type Receiver interface {
	// Put hands an event to the receiving end of the channel.
	Put(ev *event.Event)
}

// BatchReceiver is the batched fast path of the event transport: receivers
// that implement it take a whole emission set per call, paying the lock,
// window-sweep and bookkeeping costs once per batch instead of once per
// event. Receivers that only implement Put still work — BroadcastBatch
// degrades to the per-event path for them.
type BatchReceiver interface {
	Receiver
	// PutBatch hands a firing's events, in production order, to the
	// receiving end of the channel. Implementations must not retain the
	// slice after returning.
	PutBatch(evs []*event.Event)
}

// DepthReporter is implemented by receivers that can report how many
// pending events they hold; the introspection layer scrapes it into the
// per-port queue-depth gauge.
type DepthReporter interface {
	// Depth returns the number of events buffered in the receiver.
	Depth() int
}

// Channel is a directed connection from an output port to an input port.
type Channel struct {
	From *Port
	To   *Port
}

// String renders the channel for diagnostics.
func (c Channel) String() string {
	return c.From.FullName() + " -> " + c.To.FullName()
}
