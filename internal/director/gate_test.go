// The hot-path allocation gate (run by `make bench-gate`): a hard
// zero-allocation check on the steady-state firing loop. What the loop
// costs end to end is drain_eps on the benchmark's pipe_pncwf workload.
package director

import (
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// TestFiringLoopZeroAlloc replicates one steady-state turn of the engine's
// firing loop synchronously — source stamping, ring delivery, consumer
// batch, map firing, downstream broadcast, sink drain, recycle — and
// requires it to allocate nothing. Everything the loop touches must come
// from the event pool, the window free-lists, the interned wave-tag
// backing and the reused buffers; a single alloc/op here is a regression
// in the million-events/sec path. (Token construction is excluded: tokens
// are the actor domain's payload, the engine moves them.)
func TestFiringLoopZeroAlloc(t *testing.T) {
	clk := clock.NewReal()
	pool := event.NewPool(4096)

	wf := model.NewWorkflow("gate")
	mp := actors.NewMap("map", func(v value.Value) value.Value { return v })
	sink := actors.NewSink("sink", window.Passthrough(), func(_ *model.FireContext, _ *window.Window) error { return nil })
	wf.MustAdd(mp, sink)
	wf.MustConnect(mp.Out(), sink.In())

	rIn := NewRingReceiver(window.Passthrough(), clk, pool, false, 0)
	mp.In().SetReceiver(rIn)
	rSink := NewRingReceiver(window.Passthrough(), clk, pool, false, 0)
	sink.In().SetReceiver(rSink)

	tkSrc := event.NewTimekeeper()
	tkSrc.SetPool(pool)
	fctx := model.NewFireContext(clk, event.NewTimekeeper())
	fctx.Timekeeper().SetPool(pool)

	const batch = 64
	ts := time.Unix(0, 0)
	tok := value.Value(value.Int(42)) // boxed once, outside the loop
	var wbuf, sbuf []*window.Window
	var emitted []model.Emission
	var scratch, evbuf []*event.Event

	round := func() {
		// Source firing: stamp a fresh wave of pooled events and deliver.
		// (FinalizeFiring + a reused buffer is the engine's path; the
		// copying Timekeeper.EndFiring is the allocating convenience form.)
		evbuf = evbuf[:0]
		tkSrc.BeginFiring(nil)
		for i := 0; i < batch; i++ {
			evbuf = append(evbuf, tkSrc.Stamp(tok, ts))
		}
		tkSrc.FinalizeFiring()
		rIn.PutBatch(evbuf)

		// Actor firing batch, exactly as runActor drives it.
		ws, _ := rIn.GetBatch(wbuf[:0], batch)
		wbuf = ws
		emitted = emitted[:0]
		for _, w := range ws {
			fctx.BeginFiring(w.Events[w.Len()-1])
			fctx.Stage(mp.In(), w)
			if ready, _ := mp.Prefire(fctx); ready {
				if err := mp.Fire(fctx); err != nil {
					t.Fatal(err)
				}
				mp.Postfire(fctx)
			}
			emitted = append(emitted, fctx.EndFiring()...)
		}
		scratch = model.BroadcastEmissions(emitted, scratch)
		rIn.Recycle(ws)

		// Sink edge: consume and recycle, completing the event round trip.
		out, _ := rSink.GetBatch(sbuf[:0], batch)
		sbuf = out
		rSink.Recycle(out)
	}

	// Warm up: fill the pool, grow every reused buffer and the interned
	// wave-tag backing to steady state.
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state firing loop allocates %.2f allocs/op, want 0", avg)
	}
}
