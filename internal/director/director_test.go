package director_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/director"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

func ts(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second))).UTC()
}

func TestPNCWFPipeline(t *testing.T) {
	// Real-time run: the feed's timestamps are in the past, so everything
	// is immediately available and the run drains quickly.
	wf := model.NewWorkflow("p")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 100, func(i int) value.Value {
		return value.Int(int64(i))
	})
	double := actors.NewMap("double", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) * 2)
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, double, sink)
	wf.MustConnect(src.Out(), double.In())
	wf.MustConnect(double.Out(), sink.In())

	d := director.NewPNCWF(director.PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != 100 {
		t.Fatalf("sink got %d tokens, want 100", len(sink.Tokens))
	}
	seen := map[int64]bool{}
	for _, tok := range sink.Tokens {
		v := int64(tok.(value.Int))
		if v%2 != 0 || seen[v] {
			t.Fatalf("bad or duplicate token %d", v)
		}
		seen[v] = true
	}
	if st := d.Stats().Get("double"); st.Invocations == 0 {
		t.Error("PNCWF did not record statistics")
	}
}

func TestPNCWFWindowedActor(t *testing.T) {
	wf := model.NewWorkflow("w")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 20, func(i int) value.Value {
		return value.Int(int64(i))
	})
	spec := window.Spec{Unit: window.Tuples, Size: 4, Step: 4}
	var sizes []int
	agg := actors.NewAggregate("agg", spec, func(w *window.Window) value.Value {
		sizes = append(sizes, w.Len())
		sum := int64(0)
		for _, tok := range w.Tokens() {
			sum += int64(tok.(value.Int))
		}
		return value.Int(sum)
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, agg, sink)
	wf.MustConnect(src.Out(), agg.In())
	wf.MustConnect(agg.Out(), sink.In())

	d := director.NewPNCWF(director.PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != 5 {
		t.Fatalf("tumbling windows produced %d aggregates, want 5", len(sink.Tokens))
	}
	for _, n := range sizes {
		if n != 4 {
			t.Fatalf("window sizes = %v, want all 4", sizes)
		}
	}
}

func TestPNCWFTimedWindowTimeout(t *testing.T) {
	// A timed window with no successor event must still be produced by the
	// blocked reader thread's timeout handling.
	wf := model.NewWorkflow("t")
	// Place both events inside the same epoch-aligned 500ms window.
	base := time.Now().Truncate(500 * time.Millisecond).Add(-2 * time.Second)
	feed := actors.NewSliceFeed([]actors.Item{
		{Tok: value.Int(1), Time: base.Add(50 * time.Millisecond)},
		{Tok: value.Int(2), Time: base.Add(150 * time.Millisecond)},
	})
	src := actors.NewSource("src", feed, 0)
	spec := window.Spec{
		Unit: window.Time, SizeDur: 500 * time.Millisecond, StepDur: 500 * time.Millisecond,
		Timeout: 50 * time.Millisecond,
	}
	var got []int
	agg := actors.NewAggregate("agg", spec, func(w *window.Window) value.Value {
		got = append(got, w.Len())
		return value.Int(int64(w.Len()))
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, agg, sink)
	wf.MustConnect(src.Out(), agg.In())
	wf.MustConnect(agg.Out(), sink.In())

	d := director.NewPNCWF(director.PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("timed window counts = %v, want [2]", got)
	}
}

func TestThreadSimPipelineDeterministic(t *testing.T) {
	run := func() (int, time.Duration) {
		wf := model.NewWorkflow("sim")
		src := actors.NewGenerator("src", ts(0), 10*time.Millisecond, 100, func(i int) value.Value {
			return value.Int(int64(i))
		})
		double := actors.NewMap("double", func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) * 2)
		})
		sink := actors.NewCollect("sink")
		wf.MustAdd(src, double, sink)
		wf.MustConnect(src.Out(), double.In())
		wf.MustConnect(double.Out(), sink.In())

		d := director.NewThreadSim(4, 100*time.Microsecond, 0.5,
			stafilos.UniformCostModel{Cost: 200 * time.Microsecond}, nil)
		if err := d.Setup(wf); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return len(sink.Tokens), d.Clock().Elapsed()
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != 100 || n2 != 100 {
		t.Fatalf("sim delivered %d/%d tokens, want 100", n1, n2)
	}
	if t1 != t2 {
		t.Fatalf("sim not deterministic: %v vs %v", t1, t2)
	}
	// 100 events over 990ms of feed; the clock must cover the feed span.
	if t1 < 990*time.Millisecond {
		t.Errorf("sim clock %v did not reach feed end", t1)
	}
}

func TestThreadSimLockSerializationLimitsThroughput(t *testing.T) {
	// With LockFraction 1.0 the whole firing is serialized: wall time must
	// be at least firings × cost regardless of core count.
	build := func(lockFraction float64) time.Duration {
		wf := model.NewWorkflow("lock")
		src := actors.NewGenerator("src", ts(0), 0, 200, func(i int) value.Value {
			return value.Int(int64(i))
		})
		work := actors.NewMap("work", func(v value.Value) value.Value { return v })
		sink := actors.NewCollect("sink")
		wf.MustAdd(src, work, sink)
		wf.MustConnect(src.Out(), work.In())
		wf.MustConnect(work.Out(), sink.In())
		d := director.NewThreadSim(8, 0, lockFraction,
			stafilos.UniformCostModel{Cost: time.Millisecond}, nil)
		if err := d.Setup(wf); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d.Clock().Elapsed()
	}
	serialized := build(1.0)
	parallel := build(0.01)
	if serialized <= parallel {
		t.Errorf("full lock serialization (%v) should be slower than near-parallel (%v)", serialized, parallel)
	}
	// 200 source pumps + 400 internal firings at 1ms fully serialized
	// needs >= ~600ms.
	if serialized < 500*time.Millisecond {
		t.Errorf("serialized run = %v, want >= 500ms", serialized)
	}
}

func TestSDFBalanceSolver(t *testing.T) {
	// A produces 2 per firing, B consumes 3: repetitions must be A:3, B:2.
	wf := model.NewWorkflow("sdf")
	a := newRated("A", nil, 2)
	b := newRated("B", map[string]int{"in": 3}, 1)
	wf.MustAdd(a, b)
	wf.MustConnect(a.out, b.in)

	reps, err := director.SolveBalance(wf)
	if err != nil {
		t.Fatal(err)
	}
	if reps["A"] != 3 || reps["B"] != 2 {
		t.Errorf("repetition vector = %v, want A:3 B:2", reps)
	}
}

func TestSDFBalanceSolverUnitRates(t *testing.T) {
	wf := model.NewWorkflow("sdf1")
	a := newRated("A", nil, 1)
	b := newRated("B", map[string]int{"in": 1}, 1)
	c := newRated("C", map[string]int{"in": 1}, 1)
	wf.MustAdd(a, b, c)
	wf.MustConnect(a.out, b.in)
	wf.MustConnect(b.out, c.in)
	reps, err := director.SolveBalance(wf)
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range reps {
		if r != 1 {
			t.Errorf("rep[%s] = %d, want 1", n, r)
		}
	}
}

func TestSDFBalanceSolverInconsistent(t *testing.T) {
	// A->B with prod 2 cons 1, and A->B via second channel prod 1 cons 1:
	// inconsistent rates must be rejected.
	wf := model.NewWorkflow("bad")
	a := newRated2("A")
	b := newRated("B", map[string]int{"in": 1}, 1)
	wf.MustAdd(a, b)
	wf.MustConnect(a.out, b.in)
	wf.MustConnect(a.out2, b.in)
	if _, err := director.SolveBalance(wf); err == nil {
		t.Error("inconsistent SDF graph accepted")
	}
	comp := director.NewComposite("comp", wf, director.SDF)
	comp.AddInput("in", window.Passthrough(), b.in)
	if err := comp.Initialize(model.NewFireContext(clock.NewVirtual(), event.NewTimekeeper())); err == nil {
		t.Error("SDF composite over an inconsistent graph initialized")
	}
}

// ratedActor declares explicit port rates for SDF tests.
type ratedActor struct {
	model.Base
	in, out *model.Port
	inRates map[string]int
	outRate int
}

func newRated(name string, inRates map[string]int, outRate int) *ratedActor {
	a := &ratedActor{Base: model.NewBase(name), inRates: inRates, outRate: outRate}
	a.Bind(a)
	a.in = a.Input("in")
	a.out = a.Output("out")
	return a
}

func (a *ratedActor) Rate(p *model.Port) int {
	if p.Kind() == model.Output {
		return a.outRate
	}
	if r, ok := a.inRates[p.Name()]; ok {
		return r
	}
	return 1
}

type ratedActor2 struct {
	model.Base
	out, out2 *model.Port
}

func newRated2(name string) *ratedActor2 {
	a := &ratedActor2{Base: model.NewBase(name)}
	a.Bind(a)
	a.out = a.Output("out")
	a.out2 = a.Output("out2")
	return a
}

func (a *ratedActor2) Rate(p *model.Port) int {
	if p == a.out {
		return 2
	}
	return 1
}

// buildCompositeWF wires src -> composite(inner: stamp->double) -> sink.
func buildCompositeWF(t *testing.T, moc director.MoC) (*model.Workflow, *actors.Collect) {
	t.Helper()
	inner := model.NewWorkflow("inner")
	stamp := actors.NewMap("stamp", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) + 1000)
	})
	double := actors.NewMap("double", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) * 2)
	})
	inner.MustAdd(stamp, double)
	inner.MustConnect(stamp.Out(), double.In())

	comp := director.NewComposite("comp", inner, moc)
	comp.AddInput("in", window.Passthrough(), stamp.In())
	out := comp.AddOutput("out", double.Out())

	wf := model.NewWorkflow("outer")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 25, func(i int) value.Value {
		return value.Int(int64(i))
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, comp, sink)
	wf.MustConnect(src.Out(), comp.InputByName("in"))
	wf.MustConnect(out, sink.In())
	return wf, sink
}

func TestCompositeUnderSCWF(t *testing.T) {
	for _, moc := range []director.MoC{director.DDF, director.SDF} {
		wf, sink := buildCompositeWF(t, moc)
		d := stafilos.NewDirector(sched.NewQBS(0), stafilos.Options{
			Clock:          clock.NewVirtual(),
			Cost:           stafilos.UniformCostModel{Cost: 50 * time.Microsecond},
			SourceInterval: 5,
		})
		if err := d.Setup(wf); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(sink.Tokens) != 25 {
			t.Fatalf("composite delivered %d tokens, want 25", len(sink.Tokens))
		}
		for i, tok := range sink.Tokens {
			want := int64((i + 1000) * 2)
			if got := int64(tok.(value.Int)); got != want {
				t.Fatalf("token %d = %d, want %d (inner pipeline applied)", i, got, want)
			}
		}
	}
}

func TestCompositePreservesEventTime(t *testing.T) {
	// Response-time measurement depends on composites forwarding original
	// event timestamps.
	inner := model.NewWorkflow("inner")
	pass := actors.NewMap("pass", func(v value.Value) value.Value { return v })
	inner.MustAdd(pass)
	comp := director.NewComposite("comp", inner, director.DDF)
	comp.AddInput("in", window.Passthrough(), pass.In())
	out := comp.AddOutput("out", pass.Out())

	wf := model.NewWorkflow("outer")
	src := actors.NewGenerator("src", ts(100), time.Second, 3, func(i int) value.Value {
		return value.Int(int64(i))
	})
	var times []time.Time
	sink := actors.NewSink("sink", window.Passthrough(), func(ctx *model.FireContext, w *window.Window) error {
		times = append(times, w.Time)
		return nil
	})
	wf.MustAdd(src, comp, sink)
	wf.MustConnect(src.Out(), comp.InputByName("in"))
	wf.MustConnect(out, sink.In())

	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: time.Millisecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("times = %d", len(times))
	}
	for i, got := range times {
		if want := ts(100 + float64(i)); !got.Equal(want) {
			t.Errorf("event %d time = %v, want %v", i, got, want)
		}
	}
}

// TestCompositeInjectsInDeclarationOrder fires a composite whose two external
// inputs are bound to one inner port, with both windows staged (in the
// reverse order): the inner actor must see the first-declared input's window
// first, on every firing.
func TestCompositeInjectsInDeclarationOrder(t *testing.T) {
	inner := model.NewWorkflow("inner")
	var seen []*window.Window
	sink := actors.NewSink("sink", window.Passthrough(), func(_ *model.FireContext, w *window.Window) error {
		seen = append(seen, w)
		return nil
	})
	inner.MustAdd(sink)
	comp := director.NewComposite("comp", inner, director.DDF)
	first := comp.AddInput("first", window.Passthrough(), sink.In())
	second := comp.AddInput("second", window.Passthrough(), sink.In())
	ctx := model.NewFireContext(clock.NewVirtual(), event.NewTimekeeper())
	if err := comp.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	tk := event.NewTimekeeper()
	w1 := &window.Window{Events: []*event.Event{tk.External(value.Int(1), ts(0))}}
	w2 := &window.Window{Events: []*event.Event{tk.External(value.Int(2), ts(0))}}
	for i := range 100 {
		seen = seen[:0]
		ctx.BeginFiring(w2.Events[0])
		ctx.Stage(second, w2)
		ctx.Stage(first, w1)
		if err := comp.Fire(ctx); err != nil {
			t.Fatal(err)
		}
		ctx.EndFiring()
		if len(seen) != 2 || seen[0] != w1 || seen[1] != w2 {
			t.Fatalf("firing %d: inner actor saw %d windows, first-declared first: %v; want 2, true",
				i, len(seen), len(seen) > 0 && seen[0] == w1)
		}
	}
}
