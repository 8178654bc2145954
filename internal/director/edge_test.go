package director_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/director"
	"repro/internal/model"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

func TestThreadSimRequiresCostModel(t *testing.T) {
	wf := model.NewWorkflow("x")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := director.NewThreadSim(2, time.Millisecond, 0.5, nil, nil)
	if err := d.Setup(wf); err == nil {
		t.Error("ThreadSim without cost model accepted")
	}
}

func TestThreadSimDoubleSetupAndRunWithoutSetup(t *testing.T) {
	wf := model.NewWorkflow("x")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := director.NewThreadSim(2, time.Millisecond, 0.5, stafilos.UniformCostModel{}, nil)
	if err := d.Run(context.Background()); !errors.Is(err, model.ErrNotSetup) {
		t.Errorf("Run before setup = %v", err)
	}
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Setup(wf); err == nil {
		t.Error("double setup accepted")
	}
	if d.Name() != "PNCWF-sim" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestThreadSimStopWorkflow(t *testing.T) {
	wf := model.NewWorkflow("stop")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 5000,
		func(i int) value.Value { return value.Int(int64(i)) })
	n := 0
	sink := actors.NewSink("sink", window.Passthrough(),
		func(ctx *model.FireContext, w *window.Window) error {
			n += w.Len()
			if n >= 25 {
				ctx.StopWorkflow()
			}
			return nil
		})
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := director.NewThreadSim(2, 10*time.Microsecond, 0.5,
		stafilos.UniformCostModel{Cost: 10 * time.Microsecond}, nil)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n < 25 || n >= 5000 {
		t.Errorf("sim stopped after %d events", n)
	}
}

func TestPNCWFDoubleSetupAndNotSetup(t *testing.T) {
	wf := model.NewWorkflow("x")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 1,
		func(i int) value.Value { return value.Int(int64(i)) })
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())
	d := director.NewPNCWF(director.PNCWFOptions{})
	if err := d.Run(context.Background()); !errors.Is(err, model.ErrNotSetup) {
		t.Errorf("Run before setup = %v", err)
	}
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Setup(wf); err == nil {
		t.Error("double setup accepted")
	}
}

func TestPNCWFActorErrorPropagates(t *testing.T) {
	wf := model.NewWorkflow("err")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 50,
		func(i int) value.Value { return value.Int(int64(i)) })
	boom := actors.NewFunc("boom", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			return errors.New("kaput")
		})
	wf.MustAdd(src, boom)
	wf.MustConnect(src.Out(), boom.In())
	d := director.NewPNCWF(director.PNCWFOptions{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := d.Run(ctx)
	if err == nil || ctx.Err() != nil {
		t.Fatalf("Run = %v (ctx %v), want actor error", err, ctx.Err())
	}
}

// TestThreadSimActorErrorPropagates is the simulation's twin of the test
// above: a failing Fire must end Run with that error, not be dropped.
func TestThreadSimActorErrorPropagates(t *testing.T) {
	kaput := errors.New("kaput")
	wf := model.NewWorkflow("err")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 50,
		func(i int) value.Value { return value.Int(int64(i)) })
	boom := actors.NewFunc("boom", window.Passthrough(),
		func(_ *model.FireContext, w *window.Window, emit func(value.Value)) error {
			return kaput
		})
	wf.MustAdd(src, boom)
	wf.MustConnect(src.Out(), boom.In())
	d := director.NewThreadSim(2, 0, 0, stafilos.UniformCostModel{Cost: time.Millisecond}, nil)
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); !errors.Is(err, kaput) {
		t.Fatalf("Run = %v, want the actor's error", err)
	}
}

func TestCompositeRejectsUnboundInput(t *testing.T) {
	outside := actors.NewMap("outside", func(v value.Value) value.Value { return v })
	for what, bound := range map[string][]*model.Port{
		"bound to nothing":                 nil,
		"bound outside its inner workflow": {outside.In()},
	} {
		inner := model.NewWorkflow("inner")
		pass := actors.NewMap("pass", func(v value.Value) value.Value { return v })
		inner.MustAdd(pass)
		comp := director.NewComposite("comp", inner, director.DDF)
		comp.AddInput("in", window.Passthrough(), bound...)

		ctx := model.NewFireContext(clock.NewVirtual(), nil)
		if err := comp.Initialize(ctx); err == nil {
			t.Errorf("composite with an input %s initialized", what)
		}
	}
}

func TestBlockingReceiverCloseUnblocksReader(t *testing.T) {
	r := director.NewBlockingReceiver(window.Passthrough(), clock.NewReal())
	done := make(chan bool, 1)
	go func() {
		_, ok := r.Get()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Get returned a window from a closed empty receiver")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Get")
	}
}
