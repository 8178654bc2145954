package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/lr"
	"repro/internal/metrics"
	"repro/internal/value"
)

const (
	// lrReps is how many times the experiment runs at the default length.
	lrReps = 5
	// lrFine is the series bucket the run is asked for. Result exposes toll
	// response times only as a bucketed series; at 100 ms of experiment
	// time a bucket's mean stands in for its few members, so a
	// count-weighted quantile over buckets is the tolls' quantile to within
	// that resolution, and Figure 8's 10 s series is their exact
	// re-aggregation.
	lrFine = 100 * time.Millisecond
	// lrKeepUp is the stretch of experiment time over which the median
	// response is taken: the ramp up to just short of where the seed engine
	// thrashes (430 s). Over the whole run the median toll sits on the knee
	// and swings by a tenth between seeds; the 90th percentile sits on the
	// post-thrash ramp and moves only with the thrash point, so it is taken
	// over the whole run.
	lrKeepUp = 420.0
)

// lrSetup is the paper's evaluation set-up (Table 3) at the run length the
// plan allows: the full 600 s of experiment time from a fifth of the
// default run length up, no less than 120 s below that.
func lrSetup(pl plan) (lr.Setup, int) {
	s := lr.DefaultSetup()
	reps := int(math.Round(lrReps * pl.scale))
	if reps < 1 {
		reps = 1
		d := time.Duration(float64(s.Duration) * pl.scale * lrReps)
		if d < 120*time.Second {
			d = 120 * time.Second
		}
		s.Duration = d.Round(time.Second)
	}
	if reps > lrReps {
		reps = lrReps
	}
	return s, reps
}

// lrRun is one repetition's measurements.
type lrRun struct {
	res              *lr.Result
	setup, cpu       time.Duration
	mallocs          uint64
	gcCycles         uint32
	gcPause          time.Duration
	heapPeak         uint64
	p50, p90, thrash float64 // virtual seconds
}

func lrOnce(setup lr.Setup, seed int64) (*lrRun, error) {
	fine := setup
	fine.SeriesBucket = lrFine
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := fine.Run(context.Background(), lr.QBSSpec(quantum), seed)
	total := time.Since(t0)
	if err != nil {
		return nil, err
	}
	r := &lrRun{res: res, cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	// Run generates the workload and builds the workflow before it starts
	// its own stopwatch; what is left of the call is set-up.
	r.setup = total - res.WallTime
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.heapPeak = m1.HeapSys
	var keepUp []metrics.Point
	for _, p := range res.TollSeries {
		if p.T < lrKeepUp {
			keepUp = append(keepUp, p)
		}
	}
	r.p50 = weightedQuantile(keepUp, 0.5)
	r.p90 = weightedQuantile(res.TollSeries, 0.9)
	r.thrash = thrashTime(res.TollSeries, setup.SeriesBucket, setup.ThrashThreshold)
	return r, nil
}

// weightedQuantile is the q-quantile of the series' bucket means, each
// weighted by its count.
func weightedQuantile(series []metrics.Point, q float64) float64 {
	pts := append([]metrics.Point(nil), series...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Avg < pts[j].Avg })
	total := 0
	for _, p := range pts {
		total += p.Count
	}
	rank, seen := int(q*float64(total)), 0
	for _, p := range pts {
		if seen += p.Count; seen > rank {
			return p.Avg
		}
	}
	return 0
}

// thrashTime re-aggregates a fine series into buckets of the given width and
// applies Figure 8's rule: the start of the first bucket whose mean response
// exceeds the threshold and never comes back under it (-1 if none).
func thrashTime(series []metrics.Point, bucket, threshold time.Duration) float64 {
	type acc struct {
		sum float64
		n   int
	}
	width := bucket.Seconds()
	coarse := map[int]*acc{}
	last := 0
	for _, p := range series {
		i := int(p.T / width)
		a := coarse[i]
		if a == nil {
			a = &acc{}
			coarse[i] = a
		}
		a.sum += p.Avg * float64(p.Count)
		a.n += p.Count
		if i > last {
			last = i
		}
	}
	at := -1.0
	for i := 0; i <= last; i++ {
		a := coarse[i]
		if a == nil {
			continue
		}
		if a.sum/float64(a.n) > threshold.Seconds() {
			if at < 0 {
				at = float64(i) * width
			}
		} else {
			at = -1
		}
	}
	return at
}

// Slack the oracle allows where the engine's outputs legitimately depend on
// how far its statistics path lags its notification path.
const (
	// lrFlushSlack: the toll query answers 0 until the previous minute's
	// statistics have landed, which takes up to a few seconds of experiment
	// time under load; the reference model has them at the boundary.
	lrFlushSlack = 5
	// lrEdgeSlack: accident detection fires within this many seconds of the
	// reference model's 4th-identical-report instant.
	lrEdgeSlack = 2
)

// lrValidate is the oracle: every toll, and every alert raised before the
// run thrashed, is judged value for value against the reference model
// computed from the workload. Past the thrash point the accident state an
// alert is computed from is staler than the model's by construction (that
// lag is what Figure 8 plots), so alerts there are not judged.
func lrValidate(setup lr.Setup, seed int64, r *lrRun) (attempted, failed int64, err error) {
	v := lr.NewValidator(lr.Generate(setup.GenFor(seed)))
	tollOK := func(t value.Record) bool {
		return len(v.Validate([]value.Record{t}, nil).TollFailures) == 0
	}
	alertOK := func(a value.Record) bool {
		return len(v.Validate(nil, []value.Record{a}).AlertFailures) == 0
	}
	var flushRaces, edgeCases int
	var first string
	for _, t := range r.res.TollRecords {
		attempted++
		switch {
		case tollOK(t):
		case t.Float("toll") == 0 && t.Int("time")%60 <= lrFlushSlack:
			flushRaces++
		default:
			failed++
			if first == "" {
				first = "toll " + t.String()
			}
		}
	}
judging:
	for _, a := range r.res.AlertRecords {
		at := a.Int("time")
		if r.thrash >= 0 && float64(at) >= r.thrash {
			continue
		}
		attempted++
		if alertOK(a) {
			continue
		}
		for d := int64(1); d <= lrEdgeSlack; d++ {
			if alertOK(a.With("time", value.Int(at+d))) || alertOK(a.With("time", value.Int(at-d))) {
				edgeCases++
				continue judging
			}
		}
		failed++
		if first == "" {
			first = "alert " + a.String()
		}
	}
	fmt.Printf("%-14s oracle: %d judged, %d zero tolls inside the statistics flush, %d alerts on a detection edge\n",
		"lr_virtual", attempted, flushRaces, edgeCases)
	switch {
	case failed > 0:
		err = fmt.Errorf("lr_virtual: %d of %d notifications disagree with the reference model, first %s", failed, attempted, first)
	case len(r.res.TollRecords) == 0:
		failed, err = 1, fmt.Errorf("lr_virtual: the run produced no toll to judge")
	}
	return attempted, failed, err
}

// runLR measures lr_virtual: the paper's evaluation, Linear Road under QBS
// in virtual time with the calibrated cost model. Its response times are
// experiment time, so they repeat exactly for one seed.
func runLR(pl plan) *outcome {
	o := newOutcome("lr_virtual", pl)
	setup, reps := lrSetup(pl)
	if pl.trace && reps > 2 {
		reps = 2 // the per-layer numbers need no medians over wall time
	}
	o.Params["experiment_s"] = setup.Duration.Seconds()
	o.Params["reps"] = float64(reps)
	o.Params["workload_rate"] = setup.WorkloadRate
	o.Params["l_rating"] = setup.LRating

	var eps, allocs, setups, cpus []float64
	var last *lrRun
	var gcCycles uint32
	var gcPause time.Duration
	// As in a drain, a first repetition warms the heap up and is discarded.
	for i := -1; i < reps; i++ {
		r, err := lrOnce(setup, pl.seed)
		if err != nil {
			o.fail(err)
			return o
		}
		if last = r; i < 0 {
			continue
		}
		n := float64(r.res.Reports)
		eps = append(eps, n/r.res.WallTime.Seconds())
		allocs = append(allocs, float64(r.mallocs)/n)
		setups = append(setups, r.setup.Seconds())
		cpus = append(cpus, float64(r.cpu.Microseconds())/n)
		gcCycles += r.gcCycles
		gcPause += r.gcPause
	}
	o.Params["reports"] = float64(last.res.Reports)
	o.Params["tolls"] = float64(last.res.TollCount)
	o.Samples["paced_results"] = last.res.TollCount

	var err error
	o.Attempted, o.Failed, err = lrValidate(setup, pl.seed, last)
	if err != nil {
		o.fail(err)
	}
	if pl.trace {
		o.layerDefaults()
		o.set("lr.thrash_s", last.thrash, "s")
		o.set("runtime.gc_cycles", float64(gcCycles), "count")
		o.set("runtime.gc_pause_ms", gcPause.Seconds()*1e3, "ms")
		o.set("runtime.heap_peak_mb", float64(last.heapPeak)/(1<<20), "MB")
		o.set("latency.p99_ms", last.res.Toll.P99.Seconds()*1e3, "ms")
		o.set("latency.max_ms", last.res.Toll.Max.Seconds()*1e3, "ms")
		o.layers(pl.layerBudget, pl.layerReps)
		return o
	}
	o.set("drain_eps", median(eps), "1/s")
	o.set("allocs_per_event", median(allocs), "count")
	o.set("setup_s", median(setups), "s")
	o.set("paced_cpu_us_per_event", median(cpus), "us")
	o.set("paced_p50_ms", last.p50*1e3, "ms")
	o.set("paced_p90_ms", last.p90*1e3, "ms")
	for _, m := range []string{"drain_eps", "allocs_per_event", "setup_s", "paced_cpu_us_per_event"} {
		o.Samples[m] = reps
	}
	fmt.Printf("%-14s %-28s %14.4f s (experiment time; per-layer lr.thrash_s)\n", o.Workload, "lr_thrash_s", last.thrash)
	return o
}
