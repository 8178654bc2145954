package stafilos_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

func TestLQFSchedulerRunsPipeline(t *testing.T) {
	_, sink := runPipeline(t, sched.NewLQF(), 150)
	checkDoubled(t, sink, 150)
}

func TestLQFPrefersLongestQueue(t *testing.T) {
	s := sched.NewLQF()
	env := &stafilos.Env{Clock: clock.NewVirtual()}
	if err := s.Init(env); err != nil {
		t.Fatal(err)
	}
	short := actors.NewCollect("short")
	long := actors.NewCollect("long")
	s.Register(short, false)
	s.Register(long, false)
	tk := event.NewTimekeeper()
	mk := func(a model.Actor, p *model.Port, n int) {
		for i := 0; i < n; i++ {
			ev := tk.External(value.Int(int64(i)), ts(float64(i)))
			w := &window.Window{Events: []*event.Event{ev}, Time: ev.Time}
			s.Enqueue(stafilos.NewItem(a, p, w))
		}
	}
	mk(short, short.In(), 1)
	mk(long, long.In(), 5)
	e := s.NextActor()
	if e == nil || e.Actor.Name() != "long" {
		t.Fatalf("NextActor = %v, want long (5 queued vs 1)", e)
	}
}

func TestExpiredItemsRouting(t *testing.T) {
	// A tumbling window {2,2} consumes events; its expired items must be
	// re-delivered to the expired-handler actor — the paper's optional
	// expired-items activity.
	wf := model.NewWorkflow("expired")
	src := actors.NewGenerator("src", time.Unix(0, 0).UTC(), time.Millisecond, 10,
		func(i int) value.Value { return value.Int(int64(i)) })
	agg := actors.NewAggregate("agg", window.Spec{Unit: window.Tuples, Size: 2, Step: 2},
		func(w *window.Window) value.Value { return value.Int(int64(w.Len())) })
	main := actors.NewCollect("main")
	expired := actors.NewCollect("expiredHandler")
	wf.MustAdd(src, agg, main, expired)
	wf.MustConnect(src.Out(), agg.In())
	wf.MustConnect(agg.Out(), main.In())

	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: 10 * time.Microsecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	// Route agg.in's expired events into the expired handler's input.
	if err := d.RouteExpired(agg.In(), expired.In()); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(main.Tokens) != 5 {
		t.Errorf("main sink got %d windows, want 5", len(main.Tokens))
	}
	// Every consumed event expires after its tumbling window is produced.
	if len(expired.Tokens) != 10 {
		t.Errorf("expired handler got %d events, want 10", len(expired.Tokens))
	}
}

func TestRouteExpiredRejectsUnknownPorts(t *testing.T) {
	wf := model.NewWorkflow("bad")
	src := actors.NewGenerator("src", time.Unix(0, 0).UTC(), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())

	other := actors.NewCollect("other") // not in the workflow
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{},
	})
	if err := d.RouteExpired(sink.In(), other.In()); err == nil {
		t.Error("RouteExpired before Setup accepted")
	}
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.RouteExpired(other.In(), sink.In()); err == nil {
		t.Error("RouteExpired from foreign port accepted")
	}
	if err := d.RouteExpired(sink.In(), other.In()); err == nil {
		t.Error("RouteExpired to foreign port accepted")
	}
}

func TestShedderBoundsLag(t *testing.T) {
	// Events 5s..0s old flow through a shedder with a 2s lag bound: only
	// the fresh ones pass.
	wf := model.NewWorkflow("shed")
	epoch := time.Unix(100, 0).UTC()
	var items []actors.Item
	for i := 0; i < 10; i++ {
		items = append(items, actors.Item{
			Tok:  value.Int(int64(i)),
			Time: epoch.Add(time.Duration(i) * 500 * time.Millisecond),
		})
	}
	src := actors.NewSource("src", actors.NewSliceFeed(items), 0)
	shed := actors.NewShedder("shed", 2*time.Second)
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, shed, sink)
	wf.MustConnect(src.Out(), shed.In())
	wf.MustConnect(shed.Out(), sink.In())

	clk := clock.NewVirtual()
	// Jump the clock so the whole feed is due at once, with the oldest
	// events already 4.5s stale.
	clk.AdvanceTo(epoch.Add(4500 * time.Millisecond))
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clk,
		Cost:  stafilos.UniformCostModel{Cost: time.Microsecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if shed.Dropped() == 0 {
		t.Fatal("nothing shed despite stale events")
	}
	if shed.Passed() == 0 {
		t.Fatal("everything shed")
	}
	if got := shed.Dropped() + shed.Passed(); got != 10 {
		t.Errorf("dropped+passed = %d, want 10", got)
	}
	if int64(len(sink.Tokens)) != shed.Passed() {
		t.Errorf("sink %d != passed %d", len(sink.Tokens), shed.Passed())
	}
	// The survivors are the freshest events (highest indices).
	for _, tok := range sink.Tokens {
		if int64(tok.(value.Int)) < 5 {
			t.Errorf("stale event %v passed the shedder", tok)
		}
	}
}

func TestDirectorReceiverLookup(t *testing.T) {
	wf, _ := buildPipeline(1)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(), Cost: stafilos.UniformCostModel{},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	in := wf.Actor("double").Inputs()[0]
	if d.Receiver(in) == nil {
		t.Error("Receiver lookup failed for workflow port")
	}
	foreign := actors.NewCollect("x")
	if d.Receiver(foreign.In()) != nil {
		t.Error("Receiver returned something for a foreign port")
	}
}

func TestDirectorHasPendingWorkAndAdvanceIdle(t *testing.T) {
	wf, _ := buildPipeline(3)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(), Cost: stafilos.UniformCostModel{Cost: time.Microsecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if !d.HasPendingWork() {
		t.Fatal("fresh run should have pending work (unexhausted source)")
	}
	// The feed's first event is at t=0 which is now; step until drained.
	for {
		worked, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !worked {
			if !d.HasPendingWork() {
				break
			}
			if !d.AdvanceIdle() {
				break
			}
		}
	}
	if d.HasPendingWork() {
		t.Error("work remains after drain")
	}
	if d.AdvanceIdle() {
		t.Error("AdvanceIdle advanced with no horizon")
	}
}

// TestAdvanceIdleAllocs is the idle path's allocation gate: n AdvanceIdle
// calls of the sequential director with a paced source pending, counted
// exactly inside one AllocsPerRun(1, …), allocate 0 in total. The source
// set is fixed at Setup, so finding the next horizon builds nothing.
func TestAdvanceIdleAllocs(t *testing.T) {
	wf := model.NewWorkflow("idle")
	src := actors.NewGenerator("src", ts(10), time.Second, 3, func(i int) value.Value {
		return value.Int(int64(i))
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{Clock: clock.NewVirtual()})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	// Warm up past the runtime's type-assertion cache: a call site's first
	// misses fill it with one allocation, taken about 1 in 1024 times.
	for range 1 << 16 {
		d.AdvanceIdle()
	}
	const n = 1000
	advanced := 0
	allocs := testing.AllocsPerRun(1, func() {
		for range n {
			if d.AdvanceIdle() {
				advanced++
			}
		}
	})
	if advanced != 2*n { // AllocsPerRun warms up with one extra call
		t.Fatalf("AdvanceIdle advanced %d times, want %d", advanced, 2*n)
	}
	if allocs != 0 {
		t.Errorf("%d idle advances allocated %.0f objects in total, want 0", n, allocs)
	}
}
