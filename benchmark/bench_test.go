package main

import (
	"context"
	"math/rand"
	"regexp"
	"testing"
	"time"

	confluence "repro"
	"repro/benchmark/spec"
)

// smallPlan runs every workload at a hundredth of its size.
func smallPlan(t *testing.T, trace bool) plan {
	return plan{seed: 42, scale: 0.01, reps: 1, trace: trace,
		layerBudget: 200 * time.Microsecond, layerReps: 1, idleGap: 20 * time.Millisecond,
		traceDir: t.TempDir()}
}

func loadSpec(t *testing.T) *spec.Benchmark {
	t.Helper()
	b, err := spec.LoadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsSmall drives every workload end to end, untraced and traced:
// the oracle must pass and the metrics printed must be exactly the ones
// BENCHMARK.json lists.
func TestWorkloadsSmall(t *testing.T) {
	b := loadSpec(t)
	for _, trace := range []bool{false, true} {
		want := b.EndToEnd
		if trace {
			want = b.PerLayer
		}
		for _, w := range b.Workloads {
			o, err := run(w.Name, smallPlan(t, trace))
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, o.Correct, o.Attempted, o.Failed, o.err)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(o.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s printed in %q, listed in %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the names the code prints to the contract
// and the contract to its limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := workloadNames()
	if len(b.Workloads) != 7 || len(names) != 7 {
		t.Fatalf("%d workloads listed, %d in code, want 7", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: listed %q (why %d chars), code has %q", i, w.Name, len(w.Why), names[i])
		}
	}
	check := func(kind string, listed []spec.Metric, code []metricDef, bounded bool) {
		if len(listed) != len(code) {
			t.Fatalf("%s: %d listed, %d in code", kind, len(listed), len(code))
		}
		for i, m := range listed {
			c := code[i]
			if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || !name.MatchString(m.Name) {
				t.Errorf("%s %d: listed %+v, code has %+v", kind, i, m, c)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric carries no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	perLayer := append([]metricDef(nil), tracedLayers...)
	for _, op := range layerOps {
		perLayer = append(perLayer, metricDef{op.name, "ns", "lower"})
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	check("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the sizes are frozen for %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestOracleCatchesADrop plants a dropped event — the feed skips one
// sequence number — and expects the oracle to fail the run.
func TestOracleCatchesADrop(t *testing.T) {
	for _, w := range rtWorkloads {
		if w.hopPath == nil && w.name != "bridge_tcp" {
			continue // the keyed and fan-in oracles are exercised at full count above
		}
		const n, dropped = 500, 123
		feed := make([]confluence.FeedItem, n)
		rng := rand.New(rand.NewSource(1))
		at := time.Now().Add(-backdate)
		for i := range feed {
			seq := i
			if i >= dropped {
				seq = i + 1
			}
			feed[i] = confluence.FeedItem{Tok: w.payload(rng, seq), Time: at}
		}
		inst, err := w.build(&probe{}, feed)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.setup(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := inst.run(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, failed, err := inst.check(); err == nil || failed == 0 {
			t.Errorf("%s: event %d never arrived and the oracle passed (failed=%d)", w.name, dropped, failed)
		}
	}
}

func TestBucketQuantiles(t *testing.T) {
	var samples []sample
	// Buckets 0-3 of 100 samples each; bucket 2 holds a stall.
	for b := int64(0); b < 4; b++ {
		for i := int64(0); i < 100; i++ {
			resp := i
			if b == 2 {
				resp = 1000 + i
			}
			if b == 0 {
				resp = 1e6 // cold start, dropped
			}
			samples = append(samples, sample{due: b*int64(bucketWidth) + i, resp: resp})
		}
	}
	// A trailing sliver of a bucket is dropped too.
	samples = append(samples, sample{due: 4 * int64(bucketWidth), resp: 5e6})
	qs, used := bucketQuantiles(samples, 0.5, 0.9)
	if used != 3 || qs[0] != 50 || qs[1] != 90 {
		t.Errorf("bucket medians of p50, p90 = %v over %d buckets, want [50 90] over 3", qs, used)
	}
}
