package stafilos_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stafilos"
	"repro/internal/value"
	"repro/internal/window"
)

func ts(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second))).UTC()
}

// buildPipeline returns a source -> double -> collect workflow fed with n
// integer tokens spaced 10ms apart.
func buildPipeline(n int) (*model.Workflow, *actors.Collect) {
	wf := model.NewWorkflow("pipeline")
	src := actors.NewGenerator("src", ts(0), 10*time.Millisecond, n, func(i int) value.Value {
		return value.Int(int64(i))
	})
	double := actors.NewMap("double", func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) * 2)
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, double, sink)
	wf.MustConnect(src.Out(), double.In())
	wf.MustConnect(double.Out(), sink.In())
	return wf, sink
}

func runPipeline(t *testing.T, s stafilos.Scheduler, n int) (*stafilos.Director, *actors.Collect) {
	t.Helper()
	wf, sink := buildPipeline(n)
	d := stafilos.NewDirector(s, stafilos.Options{
		Clock:          clock.NewVirtual(),
		Cost:           stafilos.UniformCostModel{Cost: 100 * time.Microsecond, Dispatch: 10 * time.Microsecond},
		SourceInterval: 5,
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d, sink
}

func checkDoubled(t *testing.T, sink *actors.Collect, n int) {
	t.Helper()
	if len(sink.Tokens) != n {
		t.Fatalf("sink received %d tokens, want %d", len(sink.Tokens), n)
	}
	seen := make(map[int64]bool, n)
	for _, tok := range sink.Tokens {
		v := int64(tok.(value.Int))
		if v%2 != 0 {
			t.Fatalf("token %d not doubled", v)
		}
		if seen[v] {
			t.Fatalf("token %d delivered twice", v)
		}
		seen[v] = true
	}
}

func TestPipelineUnderEveryScheduler(t *testing.T) {
	const n = 200
	cases := map[string]func() stafilos.Scheduler{
		"QBS":  func() stafilos.Scheduler { return sched.NewQBS(500 * time.Microsecond) },
		"RR":   func() stafilos.Scheduler { return sched.NewRR(10 * time.Millisecond) },
		"RB":   func() stafilos.Scheduler { return sched.NewRB() },
		"FIFO": func() stafilos.Scheduler { return sched.NewFIFO() },
		"EDF":  func() stafilos.Scheduler { return sched.NewEDF(nil, 0) },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			_, sink := runPipeline(t, mk(), n)
			checkDoubled(t, sink, n)
		})
	}
}

func TestVirtualTimeAdvancesWithCosts(t *testing.T) {
	d, _ := runPipeline(t, sched.NewFIFO(), 50)
	v := d.Clock().(*clock.Virtual)
	// The feed spans 490ms of event time; the virtual clock must have
	// advanced at least that far, plus processing costs.
	if got := v.Elapsed(); got < 490*time.Millisecond {
		t.Errorf("virtual clock elapsed %v, want >= 490ms", got)
	}
	if got := v.Elapsed(); got > 2*time.Second {
		t.Errorf("virtual clock elapsed %v, unreasonably far", got)
	}
}

func TestStatisticsCollectedDuringRun(t *testing.T) {
	d, _ := runPipeline(t, sched.NewQBS(0), 100)
	st := d.Stats().Get("double")
	if st.Invocations == 0 {
		t.Fatal("no invocations recorded for double")
	}
	if st.InputEvents != 100 || st.OutputEvents != 100 {
		t.Errorf("events in/out = %d/%d, want 100/100", st.InputEvents, st.OutputEvents)
	}
	if st.Selectivity() != 1 {
		t.Errorf("selectivity = %v", st.Selectivity())
	}
	// Modelled cost: 100µs per firing.
	if st.EWMACost != 100*time.Microsecond {
		t.Errorf("EWMACost = %v, want 100µs (modelled)", st.EWMACost)
	}
	srcStats := d.Stats().Get("src")
	if srcStats.Invocations == 0 {
		t.Error("source firings not recorded")
	}
}

// TestInputRateCountsEachEventOnce: on SCWF an event is seen twice — the
// receiver records its arrival and the firing records its consumption — and
// the input rate must count it once. For the 1:1 double actor fed at 100
// events/s, input and output rates agree.
func TestInputRateCountsEachEventOnce(t *testing.T) {
	d, _ := runPipeline(t, sched.NewQBS(0), 2000)
	st := d.Stats().Get("double")
	if st.OutputRate <= 0 {
		t.Fatalf("OutputRate = %v, want a measured rate", st.OutputRate)
	}
	if ratio := st.InputRate / st.OutputRate; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("InputRate = %.1f, OutputRate = %.1f: want within 10%%", st.InputRate, st.OutputRate)
	}
}

func TestWindowedActorUnderSCWF(t *testing.T) {
	// A 4/1 group-by window actor (the stopped-car detection shape) fed
	// interleaved groups.
	wf := model.NewWorkflow("win")
	const n = 40
	src := actors.NewGenerator("src", ts(0), 10*time.Millisecond, n, func(i int) value.Value {
		return value.NewRecord("car", value.Int(int64(i%2)), "i", value.Int(int64(i)))
	})
	spec := window.Spec{Unit: window.Tuples, Size: 4, Step: 1, GroupBy: []string{"car"}}
	var windows [][]int64
	agg := actors.NewAggregate("detect", spec, func(w *window.Window) value.Value {
		var is []int64
		for _, r := range w.Records() {
			is = append(is, r.Int("i"))
		}
		windows = append(windows, is)
		return value.Int(is[0])
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, agg, sink)
	wf.MustConnect(src.Out(), agg.In())
	wf.MustConnect(agg.Out(), sink.In())

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
	// Each of the 2 groups sees 20 events -> 17 sliding windows each.
	if len(windows) != 34 {
		t.Fatalf("windows = %d, want 34", len(windows))
	}
	for _, w := range windows {
		if len(w) != 4 {
			t.Fatalf("window size %d, want 4: %v", len(w), w)
		}
		for j := 1; j < 4; j++ {
			if w[j] != w[j-1]+2 {
				t.Fatalf("window not per-group consecutive: %v", w)
			}
		}
	}
	if len(sink.Tokens) != 34 {
		t.Errorf("sink tokens = %d, want 34", len(sink.Tokens))
	}
}

func TestTimedWindowTimeoutsFireUnderSCWF(t *testing.T) {
	// One-minute tumbling windows with a 2s formation timeout: the last
	// window has no successor event and must be closed by the timeout.
	wf := model.NewWorkflow("timed")
	src := actors.NewGenerator("src", ts(0), 10*time.Second, 10, func(i int) value.Value {
		return value.Int(int64(i))
	})
	spec := window.Spec{Unit: window.Time, SizeDur: time.Minute, StepDur: time.Minute, Timeout: 2 * time.Second}
	var counts []int
	agg := actors.NewAggregate("minutely", spec, func(w *window.Window) value.Value {
		counts = append(counts, w.Len())
		return value.Int(int64(w.Len()))
	})
	sink := actors.NewCollect("sink")
	wf.MustAdd(src, agg, sink)
	wf.MustConnect(src.Out(), agg.In())
	wf.MustConnect(agg.Out(), sink.In())

	d := stafilos.NewDirector(sched.NewRR(0), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: time.Millisecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Events at 0..90s: minute 0 holds 6 (0..50s), minute 1 holds 4
	// (60..90s) — the second window only closes via its timeout.
	if len(counts) != 2 || counts[0] != 6 || counts[1] != 4 {
		t.Fatalf("window counts = %v, want [6 4]", counts)
	}
}

func TestFanOutDeliversToBothBranches(t *testing.T) {
	wf := model.NewWorkflow("fan")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 30, func(i int) value.Value {
		return value.Int(int64(i))
	})
	left := actors.NewCollect("left")
	right := actors.NewCollect("right")
	wf.MustAdd(src, left, right)
	wf.MustConnect(src.Out(), left.In())
	wf.MustConnect(src.Out(), right.In())

	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: 10 * time.Microsecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(left.Tokens) != 30 || len(right.Tokens) != 30 {
		t.Fatalf("fan-out delivered %d/%d, want 30/30", len(left.Tokens), len(right.Tokens))
	}
}

func TestDirectorRejectsDoubleSetupAndRunWithoutSetup(t *testing.T) {
	wf, _ := buildPipeline(1)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{Clock: clock.NewVirtual(), Cost: stafilos.UniformCostModel{}})
	if err := d.Run(context.Background()); err == nil {
		t.Error("Run before Setup should fail")
	}
	if _, err := d.Step(); err == nil {
		t.Error("Step before Setup should fail")
	}
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Setup(wf); err == nil {
		t.Error("double Setup should fail")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	wf, _ := buildPipeline(10)
	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{Clock: clock.NewVirtual(), Cost: stafilos.UniformCostModel{}})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Run(ctx); err != context.Canceled {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}

func TestStopWorkflowFromSink(t *testing.T) {
	wf := model.NewWorkflow("stop")
	src := actors.NewGenerator("src", ts(0), time.Millisecond, 1000, func(i int) value.Value {
		return value.Int(int64(i))
	})
	n := 0
	sink := actors.NewSink("sink", window.Passthrough(), func(ctx *model.FireContext, w *window.Window) error {
		n += w.Len()
		if n >= 10 {
			ctx.StopWorkflow()
		}
		return nil
	})
	wf.MustAdd(src, sink)
	wf.MustConnect(src.Out(), sink.In())

	d := stafilos.NewDirector(sched.NewFIFO(), stafilos.Options{
		Clock: clock.NewVirtual(),
		Cost:  stafilos.UniformCostModel{Cost: 10 * time.Microsecond},
	})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !d.Stopped() {
		t.Error("director did not report stop")
	}
	if n < 10 || n >= 1000 {
		t.Errorf("sink consumed %d events before stop", n)
	}
}

func TestRealClockModeMeasuresCosts(t *testing.T) {
	// Without a cost model the director measures wall time; the run should
	// still complete and record positive costs.
	wf, sink := buildPipeline(20)
	d := stafilos.NewDirector(sched.NewRR(time.Millisecond), stafilos.Options{})
	if err := d.Setup(wf); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("real-clock run did not finish")
	}
	checkDoubled(t, sink, 20)
	if st := d.Stats().Get("double"); st.TotalCost <= 0 {
		t.Error("measured cost not positive")
	}
}
