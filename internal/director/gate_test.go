// The hot-path allocation gate (run by `make bench-gate`): a hard
// zero-allocation check on the steady-state firing loop. What the loop
// costs end to end is drain_eps on the benchmark's pipe_pncwf workload.
package director

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/window"
)

// TestFiringLoopZeroAlloc replicates steady-state turns of the engine's
// firing loop synchronously — source stamping, ring delivery, consumer
// batch, map firing, downstream broadcast, sink drain, recycle — and
// requires 200 of them to allocate nothing, counted exactly:
// AllocsPerRun(1, …) divides by one, where a per-turn average would
// truncate an allocation made less often than once a turn to zero. Everything the loop touches must come
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
	const rounds = 200
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d steady-state firing-loop rounds allocate %.0f objects, want 0", rounds, allocs)
	}
}

// TestPNCWFPipeDrainAllocs is the back-pressure gate: a 4-edge PNCWF
// pipeline (source → 3 identity maps → sink) drains 200k back-dated events,
// set-up included, inside one AllocsPerRun(1, …), and may allocate at most
// 0.05 objects per event in total. Every producer waits on a full edge, so
// no more events are in flight than the rings hold and the event pool
// recycles them; a producer that ran ahead would miss the pool on most
// events. The count is exact: AllocsPerRun(1, …) divides by one.
func TestPNCWFPipeDrainAllocs(t *testing.T) {
	const n = 200_000
	items := backdated(n) // tokens boxed here, outside the count
	var got int
	allocs := testing.AllocsPerRun(1, func() {
		got = 0
		wf := model.NewWorkflow("drain")
		src := actors.NewSource("src", actors.NewSliceFeed(items), 64)
		m1 := actors.NewMap("m1", identity)
		m2 := actors.NewMap("m2", identity)
		m3 := actors.NewMap("m3", identity)
		sink := actors.NewSink("sink", window.Passthrough(), func(_ *model.FireContext, w *window.Window) error {
			got += w.Len()
			return nil
		})
		wf.MustAdd(src, m1, m2, m3, sink)
		wf.MustConnect(src.Out(), m1.In())
		wf.MustConnect(m1.Out(), m2.In())
		wf.MustConnect(m2.Out(), m3.In())
		wf.MustConnect(m3.Out(), sink.In())
		d := NewPNCWF(PNCWFOptions{})
		if err := d.Setup(wf); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if got != n {
		t.Fatalf("sink got %d events, want %d", got, n)
	}
	t.Logf("%d events drained with %.0f allocations (%.4f per event)", n, allocs, allocs/n)
	if limit := 0.05 * n; allocs > limit {
		t.Errorf("draining %d events allocated %.0f objects, want at most %.0f", n, allocs, limit)
	}
}

// TestCompositeFireAllocs is the composite path's allocation gate: n firings
// of a DDF and of an SDF composite whose inner actor emits nothing — the
// inject into the inner ready queue, the passes to quiescence and the
// emission filter — counted exactly inside one AllocsPerRun(1, …), with the
// bound stated as a total of 0. Each inner actor's context and receivers
// are resolved once at Initialize, not per firing, and the ready queue
// reuses its backing array.
func TestCompositeFireAllocs(t *testing.T) {
	for _, moc := range []MoC{DDF, SDF} {
		t.Run(moc.String(), func(t *testing.T) {
			inner := model.NewWorkflow("inner")
			fired := 0
			sink := actors.NewSink("sink", window.Passthrough(), func(_ *model.FireContext, _ *window.Window) error {
				fired++
				return nil
			})
			inner.MustAdd(sink)
			c := NewComposite("comp", inner, moc)
			in := c.AddInput("in", window.Passthrough(), sink.In())
			ctx := model.NewFireContext(clock.NewVirtual(), event.NewTimekeeper())
			if err := c.Initialize(ctx); err != nil {
				t.Fatal(err)
			}
			ev := event.NewTimekeeper().External(value.Int(1), time.Unix(0, 0))
			w := &window.Window{Events: []*event.Event{ev}}
			fire := func() {
				ctx.BeginFiring(ev)
				ctx.Stage(in, w)
				if err := c.Fire(ctx); err != nil {
					t.Fatal(err)
				}
				ctx.EndFiring()
			}
			fire() // grows the staged-window and ready-queue backings
			const n = 1000
			allocs := testing.AllocsPerRun(1, func() {
				for range n {
					fire()
				}
			})
			if fired != 2*n+1 { // AllocsPerRun warms up with one extra call
				t.Fatalf("inner actor fired %d times, want %d", fired, 2*n+1)
			}
			if allocs != 0 {
				t.Errorf("%d %s composite firings allocate %.0f objects in total, want 0", n, moc, allocs)
			}
		})
	}
}
