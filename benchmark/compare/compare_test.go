package main

import (
	"testing"

	"repro/benchmark/spec"
)

func TestJudge(t *testing.T) {
	eps := spec.Metric{Name: "drain_eps", Unit: "1/s", Better: "higher", Bound: 0.10}
	lat := spec.Metric{Name: "paced_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		m          spec.Metric
		base, cand []float64
		want       Verdict
	}{
		{"inside the bound", eps, []float64{100}, []float64{95}, Same},
		{"throughput fell past the bound", eps, []float64{100}, []float64{85}, Worse},
		{"throughput rose past the bound", eps, []float64{100}, []float64{115}, Better},
		{"latency rose past the bound", lat, []float64{1.0}, []float64{1.2}, Worse},
		{"latency fell past the bound", lat, []float64{1.0}, []float64{0.8}, Better},
		{"just inside the bound is not worse", lat, []float64{1.0}, []float64{1.09}, Same},
		{"metric missing on one side", eps, nil, []float64{100}, Unresolved},
		{"medians of several runs decide", eps, []float64{98, 100, 102}, []float64{84, 85, 86}, Worse},
		{"spread wider than the bound, runs overlap", eps, []float64{80, 100, 120}, []float64{70, 85, 110}, Unresolved},
		{"spread wider than the bound, every run better", eps, []float64{80, 100, 120}, []float64{130, 150, 170}, Better},
		{"spread wider than the bound, every run worse", lat, []float64{0.8, 1.0, 1.2}, []float64{1.5, 1.6, 1.7}, Worse},
	} {
		if got, _, _ := judge(tc.m, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsAFailedShare(t *testing.T) {
	b := &spec.Benchmark{
		Workloads: []spec.Workload{{Name: "w"}},
		EndToEnd:  []spec.Metric{{Name: "drain_eps", Unit: "1/s", Better: "higher", Bound: 0.1}},
	}
	run := func(failed int64, traced bool) spec.Run {
		return spec.Run{Workload: "w", Trace: traced, Result: spec.Result{Correct: true, Attempted: 1000, Failed: failed,
			Metrics: map[string]spec.Value{"drain_eps": {Value: 100, Unit: "1/s"}}}}
	}
	base := &spec.File{Runs: []spec.Run{run(0, false)}}
	rows, failedMore := compare(b, base, &spec.File{Runs: []spec.Run{run(3, false)}})
	if len(rows) != 1 || rows[0].verdict != Same {
		t.Errorf("rows = %+v, want one row judged same", rows)
	}
	if len(failedMore) != 1 {
		t.Errorf("a larger failed share went unreported: %v", failedMore)
	}
	// Traced runs carry per-layer metrics and are not compared.
	if _, failedMore := compare(b, base, &spec.File{Runs: []spec.Run{run(0, false), run(9, true)}}); len(failedMore) != 0 {
		t.Errorf("a traced run was counted: %v", failedMore)
	}
}
