package confluence_test

import (
	"context"
	"strings"
	"testing"
	"time"

	confluence "repro"
)

func buildAPIPipeline(n int) (*confluence.Workflow, *confluence.Collect) {
	wf := confluence.NewWorkflow("api")
	src := confluence.NewGenerator("src", time.Unix(0, 0).UTC(), time.Millisecond, n,
		func(i int) confluence.Value { return confluence.Int(i) })
	even := confluence.NewFilter("even", func(v confluence.Value) bool {
		return int(v.(confluence.IntValue))%2 == 0
	})
	sink := confluence.NewCollect("sink")
	wf.MustAdd(src, even, sink)
	wf.MustConnect(src.Out(), even.In())
	wf.MustConnect(even.Out(), sink.In())
	return wf, sink
}

func TestRunUnderEveryPolicyName(t *testing.T) {
	for _, policy := range []string{"QBS", "RR", "RB", "RB+src", "FIFO", "LQF", "EDF", ""} {
		policy := policy
		t.Run("policy="+policy, func(t *testing.T) {
			wf, sink := buildAPIPipeline(100)
			err := confluence.Run(context.Background(), wf, confluence.RunOptions{
				Scheduler: policy,
				Virtual:   true,
				Cost:      confluence.UniformCost(20*time.Microsecond, 2*time.Microsecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.Tokens) != 50 {
				t.Fatalf("sink got %d tokens, want 50", len(sink.Tokens))
			}
		})
	}
}

func TestRunPNCWFRealAndVirtual(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		wf, sink := buildAPIPipeline(60)
		err := confluence.Run(context.Background(), wf, confluence.RunOptions{
			Scheduler: "PNCWF",
			Virtual:   true,
			Cost:      confluence.UniformCost(20*time.Microsecond, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.Tokens) != 30 {
			t.Fatalf("tokens = %d", len(sink.Tokens))
		}
	})
	t.Run("real", func(t *testing.T) {
		wf, sink := buildAPIPipeline(60)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := confluence.Run(ctx, wf, confluence.RunOptions{Scheduler: "PNCWF"}); err != nil {
			t.Fatal(err)
		}
		if len(sink.Tokens) != 30 {
			t.Fatalf("tokens = %d", len(sink.Tokens))
		}
	})
}

func TestNewSchedulerRejectsUnknown(t *testing.T) {
	if _, err := confluence.NewScheduler("LOTTERY", 0); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "LOTTERY") {
		t.Errorf("error does not name the policy: %v", err)
	}
}

func TestVirtualRunRequiresCostModel(t *testing.T) {
	wf, _ := buildAPIPipeline(1)
	err := confluence.Run(context.Background(), wf, confluence.RunOptions{Virtual: true})
	if err == nil {
		t.Error("virtual run without cost model accepted")
	}
}

func TestFacadeTokenHelpers(t *testing.T) {
	r := confluence.NewRecord("a", confluence.Int(1), "b", confluence.Float(2.5), "c", confluence.Str("x"))
	if r.Int("a") != 1 || r.Float("b") != 2.5 || r.Text("c") != "x" {
		t.Errorf("record = %v", r)
	}
	if !confluence.Passthrough().IsPassthrough() {
		t.Error("Passthrough helper broken")
	}
}

func TestFacadeCompositeAndProbe(t *testing.T) {
	inner := confluence.NewWorkflow("inner")
	inc := confluence.NewMap("inc", func(v confluence.Value) confluence.Value {
		return confluence.Int(int(v.(confluence.IntValue)) + 1)
	})
	inner.MustAdd(inc)
	comp := confluence.NewComposite("comp", inner, confluence.SDF)
	comp.AddInput("in", confluence.Passthrough(), inc.In())
	out := comp.AddOutput("out", inc.Out())

	epoch := time.Unix(0, 0).UTC()
	collector := confluence.NewResponseCollector("probe", epoch, time.Second)
	probe := confluence.NewProbe("probe", collector)
	sink := confluence.NewCollect("sink")

	wf := confluence.NewWorkflow("outer")
	src := confluence.NewGenerator("src", epoch, time.Millisecond, 20,
		func(i int) confluence.Value { return confluence.Int(i) })
	wf.MustAdd(src, comp, probe, sink)
	wf.MustConnect(src.Out(), comp.InputByName("in"))
	wf.MustConnect(out, probe.In())
	wf.MustConnect(probe.Out(), sink.In())

	err := confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: "FIFO", Virtual: true,
		Cost: confluence.UniformCost(10*time.Microsecond, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Tokens) != 20 {
		t.Fatalf("tokens = %d", len(sink.Tokens))
	}
	if got := int(sink.Tokens[0].(confluence.IntValue)); got != 1 {
		t.Errorf("composite did not apply inner increment: %d", got)
	}
	s := collector.Summary()
	if s.Count != 20 {
		t.Errorf("probe recorded %d, want 20", s.Count)
	}
	if s.WithinDeadline != 1 {
		t.Errorf("within-deadline = %v (virtual run should be fast)", s.WithinDeadline)
	}
}

func TestFacadeStatsPlumbing(t *testing.T) {
	wf, _ := buildAPIPipeline(50)
	var st confluence.Stats
	err := confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: "QBS",
		Virtual:   true,
		Cost:      confluence.UniformCost(30*time.Microsecond, 0),
		Stats:     &st,
		Priorities: map[string]int{
			"even": 5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Get("even"); got.Invocations != 50 {
		t.Errorf("even invocations = %d, want 50", got.Invocations)
	}
	if got := st.Get("even").Selectivity(); got != 0.5 {
		t.Errorf("even selectivity = %v, want 0.5", got)
	}
}
