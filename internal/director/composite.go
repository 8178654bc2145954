package director

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/window"
)

// Composite is an opaque composite actor: a sub-workflow governed by its
// own inside director (SDF or DDF), appearing to the enclosing workflow as
// a single actor. The Linear Road implementation's second hierarchy level —
// stopped-car detection, accident detection, segment statistics — is built
// from composites (Appendix A, Figures 11–15).
//
// External input ports carry the window semantics; each firing injects the
// consumed window into the bound inner ports, runs the inner workflow to
// quiescence, and forwards emissions from bound inner output ports to the
// composite's external outputs.
type Composite struct {
	model.Base
	inner *model.Workflow
	dir   InsideDirector

	inBind  map[*model.Port][]*model.Port // external input -> inner inputs
	outBind map[*model.Port]*model.Port   // inner output -> external output

	// hook is c.forward, bound once so a firing builds no closure; fctx is
	// the outer firing's context for the length of a Fire. An actor never
	// fires concurrently with itself, so one field serves every firing.
	hook EmitHook
	fctx *model.FireContext
}

// NewComposite builds a composite actor around an inner workflow.
func NewComposite(name string, inner *model.Workflow, dir InsideDirector) *Composite {
	c := &Composite{
		inner:   inner,
		dir:     dir,
		inBind:  make(map[*model.Port][]*model.Port),
		outBind: make(map[*model.Port]*model.Port),
	}
	c.Base = model.NewBase(name)
	c.Bind(c)
	c.hook = c.forward
	return c
}

// Inner returns the sub-workflow.
func (c *Composite) Inner() *model.Workflow { return c.inner }

// InsideDirector returns the governing inside director.
func (c *Composite) InsideDirector() InsideDirector { return c.dir }

// BoundInputs implements model.OpaqueComposite: the inner input ports an
// external input injects into.
func (c *Composite) BoundInputs(ext *model.Port) []*model.Port { return c.inBind[ext] }

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
	c.inBind[ext] = append(c.inBind[ext], inner...)
	return ext
}

// AddOutput declares an external output port forwarding the given inner
// output port's emissions.
func (c *Composite) AddOutput(name string, innerOut *model.Port) *model.Port {
	ext := c.Output(name)
	c.outBind[innerOut] = ext
	return ext
}

// Initialize implements model.Actor: set up the inner workflow under the
// inside director.
func (c *Composite) Initialize(ctx *model.FireContext) error {
	for ext, inners := range c.inBind {
		if len(inners) == 0 {
			return fmt.Errorf("director: composite %s input %s bound to nothing", c.Name(), ext.Name())
		}
	}
	return c.dir.Setup(c.inner, ctx.Clock())
}

// Fire implements model.Actor: inject, run to quiescence, forward.
func (c *Composite) Fire(ctx *model.FireContext) error {
	for ext, inners := range c.inBind {
		w := ctx.Window(ext)
		if w == nil {
			continue
		}
		for _, ip := range inners {
			c.dir.Inject(ip, w)
		}
	}
	c.fctx = ctx
	err := c.dir.RunToQuiescence(c.hook)
	c.fctx = nil
	return err
}

// forward is the emit hook: it consumes an emission of a bound inner output
// port by putting it on the external output of the firing in progress.
func (c *Composite) forward(em model.Emission) bool {
	ext, ok := c.outBind[em.Port]
	if !ok {
		return false
	}
	// Forward with the original event timestamp so response times trace
	// back to the external event that started the wave.
	c.fctx.PutAt(ext, em.Ev.Token, em.Ev.Time)
	return true
}
