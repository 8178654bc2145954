package model

import (
	"fmt"

	"repro/internal/window"
)

// Actor is an independent workflow component. Directors drive actors
// through the Kepler iteration phases: Initialize once, then repeated
// Prefire/Fire/Postfire iterations, then Wrapup.
type Actor interface {
	// Name returns the actor's name, unique within its workflow.
	Name() string
	// Inputs returns the actor's input ports.
	Inputs() []*Port
	// Outputs returns the actor's output ports.
	Outputs() []*Port
	// Initialize prepares the actor before execution starts.
	Initialize(ctx *FireContext) error
	// Prefire reports whether the actor is ready to fire this iteration.
	Prefire(ctx *FireContext) (bool, error)
	// Fire performs one invocation: consume staged input windows, produce
	// output tokens via ctx.Put.
	Fire(ctx *FireContext) error
	// Postfire completes the iteration; returning false asks the director
	// to stop iterating this actor.
	Postfire(ctx *FireContext) (bool, error)
	// Wrapup releases resources after execution ends.
	Wrapup() error
}

// Invoke drives one iteration of a on ctx: Prefire, then — when the actor
// reports ready — Fire and Postfire. Every director fires its actors through
// it; the error names the phase and the actor.
func Invoke(a Actor, ctx *FireContext) error {
	ready, err := a.Prefire(ctx)
	if err != nil {
		return fmt.Errorf("model: prefire %s: %w", a.Name(), err)
	}
	if !ready {
		return nil
	}
	if err := a.Fire(ctx); err != nil {
		return fmt.Errorf("model: fire %s: %w", a.Name(), err)
	}
	if _, err := a.Postfire(ctx); err != nil {
		return fmt.Errorf("model: postfire %s: %w", a.Name(), err)
	}
	return nil
}

// SourceActor marks actors that pump external data into the workflow.
// Schedulers treat sources specially (the paper regulates data entering the
// workflow by scheduling sources independently of internal actors).
type SourceActor interface {
	Actor
	// Exhausted reports that the source will never produce again, letting
	// directors terminate finite runs.
	Exhausted() bool
}

// Base provides the common actor plumbing: name, port registry, and no-op
// lifecycle defaults. Embed it and override what the actor needs —
// typically just Fire.
type Base struct {
	name    string
	inputs  []*Port
	outputs []*Port
	self    Actor // the embedding actor, for port ownership
}

// NewBase returns a Base with the given name. The embedding actor must call
// Bind(self) before creating ports so port ownership points at the real
// actor, not the Base.
func NewBase(name string) Base { return Base{name: name} }

// Bind records the embedding actor so ports report the right owner. It
// returns the receiver for chaining.
func (b *Base) Bind(self Actor) *Base {
	b.self = self
	return b
}

func (b *Base) owner() Actor {
	if b.self != nil {
		return b.self
	}
	return b
}

// Name implements Actor.
func (b *Base) Name() string { return b.name }

// Inputs implements Actor.
func (b *Base) Inputs() []*Port { return b.inputs }

// Outputs implements Actor.
func (b *Base) Outputs() []*Port { return b.outputs }

// Initialize implements Actor as a no-op.
func (b *Base) Initialize(*FireContext) error { return nil }

// Prefire implements Actor; the default is always ready.
func (b *Base) Prefire(*FireContext) (bool, error) { return true, nil }

// Fire implements Actor as a no-op; embedding actors override it.
func (b *Base) Fire(*FireContext) error { return nil }

// Postfire implements Actor; the default continues iterating.
func (b *Base) Postfire(*FireContext) (bool, error) { return true, nil }

// Wrapup implements Actor as a no-op.
func (b *Base) Wrapup() error { return nil }

// Input declares an input port with passthrough (single-event) semantics.
func (b *Base) Input(name string) *Port {
	return b.WindowedInput(name, window.Passthrough())
}

// WindowedInput declares an input port whose active queue applies the given
// window semantics.
func (b *Base) WindowedInput(name string, spec window.Spec) *Port {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("model: actor %s input %s: %v", b.name, name, err))
	}
	for _, p := range b.inputs {
		if p.name == name {
			panic(fmt.Sprintf("model: actor %s: duplicate input %s", b.name, name))
		}
	}
	p := &Port{name: name, kind: Input, owner: b.owner(), spec: spec}
	b.inputs = append(b.inputs, p)
	return p
}

// Output declares an output port.
func (b *Base) Output(name string) *Port {
	for _, p := range b.outputs {
		if p.name == name {
			panic(fmt.Sprintf("model: actor %s: duplicate output %s", b.name, name))
		}
	}
	p := &Port{name: name, kind: Output, owner: b.owner()}
	b.outputs = append(b.outputs, p)
	return p
}

// InputByName returns the named input port, or nil.
func (b *Base) InputByName(name string) *Port {
	for _, p := range b.inputs {
		if p.name == name {
			return p
		}
	}
	return nil
}

// OutputByName returns the named output port, or nil.
func (b *Base) OutputByName(name string) *Port {
	for _, p := range b.outputs {
		if p.name == name {
			return p
		}
	}
	return nil
}
