package main

import (
	"fmt"
	"slices"
	"time"

	"repro/benchmark/spec"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: the run length the
	// frozen sizes are for. Other lengths scale the phase lengths.
	defaultSeconds = 12
	// pacedSeconds is the paced phase's length at the default run length.
	pacedSeconds = 6
	// drainReps is how many times the drain phase (and set-up with it) is
	// measured; medians are reported. One more repetition runs first and is
	// discarded: it pays for growing the heap to the workload's size and
	// reads a tenth to a fifth slower than the rest.
	drainReps = 7
)

// plan is how long and how often one run measures.
type plan struct {
	seed int64
	// scale multiplies the drain size and the paced duration; 1 is the
	// default run length.
	scale float64
	reps  int
	trace bool
	// A traced run times each layer operation layerReps times for
	// layerBudget, and hosts the idle workflow for idleGap.
	layerBudget time.Duration
	layerReps   int
	idleGap     time.Duration
	// traceDir is where a traced run leaves its span files.
	traceDir string
}

// defaultPlan is the plan of a run of the given length.
func defaultPlan(seed int64, seconds float64, trace bool) plan {
	return plan{seed: seed, scale: seconds / defaultSeconds, reps: drainReps, trace: trace,
		layerBudget: 20 * time.Millisecond, layerReps: 3, idleGap: time.Second,
		traceDir: "benchmark/out"}
}

func (pl plan) drainEvents(w *rtWorkload) int {
	n := int(float64(w.drainEvents) * pl.scale)
	if n < 1 {
		n = 1
	}
	return n
}

func (pl plan) pacedEvents(w *rtWorkload) int {
	n := int(w.pacedRate * pacedSeconds * pl.scale)
	if n < 1 {
		n = 1
	}
	return n
}

// outcome accumulates one run's result line and the provenance behind it.
type outcome struct {
	spec.Run
	err error
}

func newOutcome(name string, pl plan) *outcome {
	return &outcome{Run: spec.Run{
		Workload: name, Seed: pl.seed, Seconds: pl.scale * defaultSeconds, Trace: pl.trace,
		Result:  spec.Result{Correct: true, Metrics: map[string]spec.Value{}},
		Params:  map[string]float64{},
		Samples: map[string]int{},
	}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = spec.Value{Value: v, Unit: unit}
}

// fail records an oracle mismatch or a run error: the run is not correct.
func (o *outcome) fail(err error) {
	o.Correct = false
	if o.err == nil {
		o.err = err
	}
}

func (o *outcome) count(ph *phaseOut) {
	o.Attempted += ph.attempted
	o.Failed += ph.failed
}

// drained holds the drain phase's medians.
type drained struct {
	eps, allocs, setup float64
	last               *phaseOut
}

// drain runs the drain phase once to warm up and then pl.reps times, each
// with spans on or off.
func (w *rtWorkload) drain(pl plan, o *outcome, traced bool) (drained, bool) {
	var eps, allocs, setups []float64
	var d drained
	for r := -1; r < pl.reps; r++ {
		ps := phaseSpec{seed: pl.seed, n: pl.drainEvents(w)}
		if traced {
			ps.tr = &tracer{}
		}
		ph, err := w.phase(ps)
		if ph != nil {
			o.count(ph)
		}
		if err != nil {
			o.fail(err)
			return d, false
		}
		if r < 0 {
			continue
		}
		eps = append(eps, float64(ph.events)/ph.wall.Seconds())
		allocs = append(allocs, float64(ph.mallocs)/float64(ph.events))
		setups = append(setups, ph.setup.Seconds())
		d.last = ph
	}
	d.eps, d.allocs, d.setup = median(eps), median(allocs), median(setups)
	return d, true
}

// runUntraced measures a wall-clock workload's end-to-end metrics.
func (w *rtWorkload) runUntraced(pl plan) *outcome {
	o := newOutcome(w.name, pl)
	o.Params["drain_events"] = float64(pl.drainEvents(w))
	o.Params["drain_reps"] = float64(pl.reps)
	o.Params["paced_rate_eps"] = w.pacedRate
	o.Params["paced_events"] = float64(pl.pacedEvents(w))
	o.Params["limit_ms"] = float64(limit.Milliseconds())

	d, ok := w.drain(pl, o, false)
	if !ok {
		return o
	}
	o.set("drain_eps", d.eps, "1/s")
	o.set("allocs_per_event", d.allocs, "count")
	o.set("setup_s", d.setup, "s")
	o.Samples["drain_eps"] = pl.reps
	o.Samples["allocs_per_event"] = pl.reps
	o.Samples["setup_s"] = pl.reps

	ph, err := w.phase(phaseSpec{seed: pl.seed, n: pl.pacedEvents(w), paced: true})
	if ph != nil {
		o.count(ph)
	}
	if err != nil {
		o.fail(err)
		return o
	}
	qs, buckets := bucketQuantiles(ph.samples, 0.5, 0.9)
	o.set("paced_p50_ms", qs[0]/1e6, "ms")
	o.set("paced_p90_ms", qs[1]/1e6, "ms")
	o.set("paced_cpu_us_per_event", ph.cpuPerEvent, "us")
	o.Samples["paced_results"] = len(ph.samples)
	o.Samples["paced_buckets"] = buckets
	return o
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// runTraced measures a wall-clock workload's per-layer metrics: drains with
// spans off and on (their ratio is what tracing costs), a paced phase with
// spans on, the cost of hosting the idle workflow, and the layer
// operations.
func (w *rtWorkload) runTraced(pl plan) *outcome {
	o := newOutcome(w.name, pl)
	o.layerDefaults()
	o.Params["drain_events"] = float64(pl.drainEvents(w))
	o.Params["paced_rate_eps"] = w.pacedRate
	o.Params["paced_events"] = float64(pl.pacedEvents(w) / 2)
	o.Params["sample_every"] = sampleEvery

	// Two repetitions a side are enough for a ratio that is not bounded.
	if pl.reps > 2 {
		pl.reps = 2
	}
	off, ok := w.drain(pl, o, false)
	if !ok {
		return o
	}
	on, ok := w.drain(pl, o, true)
	if !ok {
		return o
	}
	o.set("trace.overhead_frac", 1-on.eps/off.eps, "frac")
	reordered := off.last.inst.reorderedCount() + on.last.inst.reorderedCount()

	tr := &tracer{}
	ph, err := w.phase(phaseSpec{seed: pl.seed, n: pl.pacedEvents(w) / 2, paced: true, tr: tr})
	if ph != nil {
		o.count(ph)
	}
	if err != nil {
		o.fail(err)
		return o
	}
	st := tr.analyze(func(seq int64) int64 { return ph.due[seq] })
	o.set("actors.source_lag_p50_ms", ms(quantile(st.sourceLag, 0.5)), "ms")
	o.set("actors.source_lag_p90_ms", ms(quantile(st.sourceLag, 0.9)), "ms")
	o.set("hop.transit_p50_us", us(quantile(st.hopTransit, 0.5)), "us")
	o.set("hop.transit_p90_us", us(quantile(st.hopTransit, 0.9)), "us")
	o.set("hop.actor_self_p50_us", us(quantile(st.self, 0.5)), "us")
	o.set("window.close_lag_p50_ms", ms(quantile(st.closeLag, 0.5)), "ms")
	o.set("window.close_lag_p90_ms", ms(quantile(st.closeLag, 0.9)), "ms")
	o.set("dist.transit_p50_ms", ms(quantile(st.bridge, 0.5)), "ms")
	o.set("dist.transit_p90_ms", ms(quantile(st.bridge, 0.9)), "ms")
	o.Samples["source_lag_spans"] = len(st.sourceLag)
	o.Samples["hop_spans"] = len(st.hopTransit)
	o.Samples["close_lag_spans"] = len(st.closeLag)
	o.Samples["bridge_spans"] = len(st.bridge)

	resp := make([]int64, len(ph.samples))
	for i, s := range ph.samples {
		resp[i] = s.resp
	}
	slices.Sort(resp)
	o.set("latency.p99_ms", ms(quantile(resp, 0.99)), "ms")
	o.set("latency.max_ms", ms(quantile(resp, 1)), "ms")
	o.Samples["paced_results"] = len(resp)

	inst := ph.inst
	reordered += inst.reorderedCount()
	o.set("director.reordered", float64(reordered), "count")
	var events, firings int64
	var busiest time.Duration
	for _, a := range inst.stats.Snapshot() {
		events += a.InputEvents
		if a.InputEvents == 0 {
			events += a.OutputEvents // a source
		}
		firings += a.Invocations
		if a.TotalCost > busiest {
			busiest = a.TotalCost
		}
	}
	if firings > 0 {
		o.set("stats.events_per_firing", float64(events)/float64(firings), "count")
	}
	pacedWall := time.Duration(ph.due[len(ph.due)-1])
	o.set("stats.busiest_actor_busy_frac", busiest.Seconds()/pacedWall.Seconds(), "frac")
	if inst.partialFrac != nil {
		o.set("window.partial_frac", inst.partialFrac(), "frac")
	}
	if r := inst.recv; r != nil {
		o.set("dist.ring_watermark", float64(r.Watermark()), "count")
		o.set("dist.dropped", float64(r.Dropped()), "count")
		o.set("dist.seq_gaps", float64(r.SeqGaps()), "count")
		o.set("dist.decode_errors", float64(r.DecodeErrors()), "count")
	}
	o.set("runtime.gc_cycles", float64(ph.gcCycles), "count")
	o.set("runtime.gc_pause_ms", ph.gcPause.Seconds()*1e3, "ms")
	o.set("runtime.heap_peak_mb", float64(ph.heapPeak)/(1<<20), "MB")

	// Hosting cost: two items one idle gap apart.
	idle, err := w.phase(phaseSpec{seed: pl.seed, n: 2, paced: true, gap: pl.idleGap})
	if err != nil {
		o.fail(err)
		return o
	}
	idleName := "stafilos.idle_cpu_ms_per_s"
	if w.pncwf {
		idleName = "director.idle_cpu_ms_per_s"
	}
	o.set(idleName, idle.cpu.Seconds()*1e3/idle.runWall.Seconds(), "ms/s")

	if w.bare != nil {
		// The same pipe with no hook live, at this workload's size.
		size := pl
		size.scale *= float64(w.drainEvents) / float64(w.bare.drainEvents)
		bare, ok := w.bare.drain(size, o, false)
		if !ok {
			return o
		}
		o.set("obs.overhead_frac", 1-off.eps/bare.eps, "frac")
	}

	o.layers(pl.layerBudget, pl.layerReps)
	if w.hopPath != nil {
		o.hopBudget(off.eps, pipeEdges, w.hopPath)
	}
	if path, err := tr.write(pl.traceDir, w.name, pl.seed, w.pacedRate); err != nil {
		o.fail(err)
	} else {
		fmt.Printf("%-14s spans written to %s\n", w.name, path)
	}
	return o
}
