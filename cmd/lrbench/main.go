// Command lrbench regenerates the paper's evaluation: the Linear Road
// workload curve (Figure 5), the RR and QBS sensitivity sweeps (Figures 6
// and 7), the scheduler comparison (Figure 8) and the experimental setup
// (Table 3). Runs execute in deterministic virtual time with the calibrated
// cost model; see DESIGN.md for the substitution rationale.
//
// Usage:
//
//	lrbench -print-setup
//	lrbench -fig 5
//	lrbench -fig 8 [-seed 42] [-duration 600s] [-rb-prioritize-sources]
//	lrbench -all
//	lrbench -fig 8 -json          # machine-readable per-run summaries
//	lrbench -fig 8 -obs 127.0.0.1:9090 -slo   # live QoS on /slo while runs execute
//	lrbench -fig 8 -shed 5s       # insert a load shedder after the source
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/lr"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/qos"
	"repro/internal/sched"
	"repro/internal/stafilos"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (5, 6, 7 or 8)")
		extensions = flag.Bool("extensions", false,
			"compare the extension policies (FIFO, LQF, EDF) against QBS on Linear Road")
		all        = flag.Bool("all", false, "regenerate every figure and table")
		printSetup = flag.Bool("print-setup", false, "print Table 3")
		seed       = flag.Int64("seed", 42, "workload seed")
		duration   = flag.Duration("duration", 600*time.Second, "experiment duration")
		rbSources  = flag.Bool("rb-prioritize-sources", false,
			"ablation: schedule RB sources in regular intervals (DESIGN.md D2)")
		obsAddr = flag.String("obs", "", "serve engine introspection on this address while runs execute")
		sample  = flag.Float64("sample", 1.0, "fraction of waves traced (with -obs)")
		slo     = flag.Bool("slo", false, "attach the continuous QoS monitor with the toll-deadline SLO (requires -obs)")
		shed    = flag.Duration("shed", 0, "insert a load shedder after the source dropping reports staler than this lag")
	)
	flag.BoolVar(&jsonOut, "json", false, "emit per-run summaries as JSON lines (durations as seconds)")
	flag.Parse()

	setup := lr.DefaultSetup()
	setup.Duration = *duration
	setup.ShedMaxLag = *shed

	if *slo && *obsAddr == "" {
		fmt.Fprintln(os.Stderr, "lrbench: -slo requires -obs")
		os.Exit(2)
	}
	var observer *obs.Engine
	if *obsAddr != "" {
		// Latency attribution rides along with -obs: each run's report then
		// names the top actors by critical-path share.
		observer = obs.NewEngine(obs.Options{SampleRate: *sample, Latency: true})
		latencyObs = observer
		addr, err := observer.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# introspection: http://%s/ (/metrics /workflows /provenance /healthz)\n", addr)
		setup.Observer = observer
		if *slo {
			m := qos.NewMonitor(observer, qos.Options{})
			m.AddSLO(lr.TollSLO())
			setup.QoS = m
			fmt.Printf("# qos: toll-deadline SLO live on http://%s/slo (dumps: /debug/flightrecorder)\n", addr)
		}
	}

	if *printSetup || *all {
		fmt.Println(setup.String())
	}
	runFig := func(n int) {
		if err := runFigure(setup, n, *seed, *rbSources); err != nil {
			fmt.Fprintf(os.Stderr, "lrbench: figure %d: %v\n", n, err)
			os.Exit(1)
		}
	}
	switch {
	case *extensions:
		if err := runExtensions(setup, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "lrbench: extensions: %v\n", err)
			os.Exit(1)
		}
	case *all:
		for _, n := range []int{5, 6, 7, 8} {
			runFig(n)
		}
	case *fig != 0:
		runFig(*fig)
	case !*printSetup:
		flag.Usage()
		os.Exit(2)
	}

	if observer != nil {
		fmt.Printf("# introspection: runs done, still serving on http://%s/ — interrupt to exit\n", observer.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		<-ctx.Done()
		stop()
		observer.Close()
	}
}

// runExtensions compares the framework's extension policies on the same
// Linear Road ramp — results beyond the paper, demonstrating STAFiLOS
// pluggability on the full benchmark.
func runExtensions(setup lr.Setup, seed int64) error {
	fmt.Println("Extensions: FIFO, LQF and EDF on Linear Road (vs QBS-q500)")
	specs := []lr.SchedulerSpec{
		lr.QBSSpec(500 * time.Microsecond),
		{Label: "FIFO", Make: func() stafilos.Scheduler { return sched.NewFIFO() }},
		{Label: "LQF", Make: func() stafilos.Scheduler { return sched.NewLQF() }},
		{Label: "EDF", Make: func() stafilos.Scheduler {
			return sched.NewEDF(nil, 5*time.Second)
		}},
	}
	var results []*lr.Result
	for _, spec := range specs {
		r, err := setup.Run(context.Background(), spec, seed)
		if err != nil {
			return err
		}
		report(r)
		results = append(results, r)
	}
	fmt.Println(lr.FormatSeries(results, setup.SeriesBucket))
	return nil
}

func runFigure(setup lr.Setup, fig int, seed int64, rbSources bool) error {
	ctx := context.Background()
	switch fig {
	case 5:
		w := lr.Generate(setup.GenFor(seed))
		fmt.Printf("Figure 5: Workload of %.1f highways (%d position reports)\n", setup.LRating, len(w.Reports))
		fmt.Println("time(s)\treports/s")
		for _, p := range w.RateSeries(10 * time.Second) {
			fmt.Printf("%.0f\t%.1f\n", p.T, p.Rate)
		}
		return nil

	case 6:
		fmt.Println("Figure 6: Response Time at TollNotification for the RR scheduler")
		var results []*lr.Result
		for _, q := range setup.RRBasicQuanta {
			r, err := setup.Run(ctx, lr.RRSpec(q), seed)
			if err != nil {
				return err
			}
			report(r)
			results = append(results, r)
		}
		fmt.Println(lr.FormatSeries(results, setup.SeriesBucket))
		return nil

	case 7:
		fmt.Println("Figure 7: Response Time at TollNotification for the QBS scheduler")
		var results []*lr.Result
		for _, b := range setup.QBSBasicQuanta {
			r, err := setup.Run(ctx, lr.QBSSpec(b), seed)
			if err != nil {
				return err
			}
			report(r)
			results = append(results, r)
		}
		fmt.Println(lr.FormatSeries(results, setup.SeriesBucket))
		return nil

	case 8:
		fmt.Println("Figure 8: Response Times of all the main schedulers")
		specs := []lr.SchedulerSpec{
			lr.RRSpec(40 * time.Millisecond),
			lr.QBSSpec(500 * time.Microsecond),
			lr.RBSpec(),
			lr.PNCWFSpec(),
		}
		if rbSources {
			specs[2] = lr.SchedulerSpec{
				Label: "RB+src",
				Make:  func() stafilos.Scheduler { return sched.NewRBPrioritizedSources() },
			}
		}
		var results []*lr.Result
		for _, spec := range specs {
			r, err := setup.Run(ctx, spec, seed)
			if err != nil {
				return err
			}
			report(r)
			results = append(results, r)
		}
		fmt.Println(lr.FormatSeries(results, setup.SeriesBucket))
		return nil
	}
	return fmt.Errorf("unknown figure %d (want 5-8)", fig)
}

// jsonOut switches report to machine-readable JSON lines.
var jsonOut bool

// latencyObs is the observer whose latency attribution report reads (nil
// when -obs is off). Reset between runs so each report covers one run.
var latencyObs *obs.Engine

func report(r *lr.Result) {
	if jsonOut {
		reportJSON(r)
		return
	}
	thrash := "never"
	if r.ThrashAt >= 0 {
		thrash = fmt.Sprintf("%.0fs", r.ThrashAt)
	}
	fmt.Printf("# %-12s reports=%d tolls=%d alerts=%d meanRT=%v p95=%v within5s=%.1f%% thrash=%s wall=%v\n",
		r.Label, r.Reports, r.TollCount, r.AlertCount,
		r.Toll.Mean.Round(time.Millisecond), r.Toll.P95.Round(time.Millisecond),
		100*r.Toll.WithinDeadline, thrash, r.WallTime.Round(time.Millisecond))
	for _, s := range r.Shed {
		fmt.Printf("#   shed %-10s dropped=%d passed=%d maxLag=%v\n",
			s.Actor, s.Dropped, s.Passed, s.MaxLag)
	}
	if latencyObs != nil {
		v := latencyObs.LatencySummary(3)
		for _, a := range v.Actors {
			fmt.Printf("#   critical-path %-14s share=%.1f%% (cost=%.1f%% queue=%.1f%%) waves=%d\n",
				a.Actor, 100*a.Share, 100*a.CostShare, 100*a.QueueShare, a.Waves)
		}
		latencyObs.ResetLatency()
	}
}

// reportJSON emits one run as a JSON line, with the response-time summaries
// serialized through metrics.Summary.MarshalJSON — the same shape the
// introspection server's /workflows endpoint uses.
func reportJSON(r *lr.Result) {
	out := struct {
		Scheduler       string              `json:"scheduler"`
		Label           string              `json:"label"`
		Reports         int                 `json:"reports"`
		TollCount       int                 `json:"toll_count"`
		AlertCount      int                 `json:"alert_count"`
		Toll            metrics.Summary     `json:"toll"`
		Accident        metrics.Summary     `json:"accident"`
		Shed            []metrics.ShedStats `json:"shed,omitempty"`
		ThrashAtSeconds float64             `json:"thrash_at_seconds"`
		WallSeconds     float64             `json:"wall_seconds"`
		Latency         any                 `json:"latency,omitempty"`
	}{
		Scheduler:       r.Scheduler,
		Label:           r.Label,
		Reports:         r.Reports,
		TollCount:       r.TollCount,
		AlertCount:      r.AlertCount,
		Toll:            r.Toll,
		Accident:        r.Accident,
		Shed:            r.Shed,
		ThrashAtSeconds: r.ThrashAt,
		WallSeconds:     r.WallTime.Seconds(),
	}
	if latencyObs != nil {
		out.Latency = latencyObs.LatencySummary(3)
		latencyObs.ResetLatency()
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrbench: json: %v\n", err)
		return
	}
	fmt.Println(string(b))
}
