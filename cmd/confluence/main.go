// Command confluence is the engine's command-line front end:
//
//	confluence taxonomy
//	    print Table 1 (the director taxonomy).
//	confluence demo [-scheduler QBS|RR|RB|FIFO|EDF|PNCWF] [-n 1000]
//	    run a demonstration pipeline under the chosen director and print
//	    throughput/statistics.
//	confluence run <spec.json> [-scheduler QBS]
//	    build and execute a JSON workflow specification.
//	confluence types
//	    list the actor types available to specifications.
//	confluence serve [-addr 127.0.0.1:7070]
//	    start multi-workflow mode: a global scheduler plus the
//	    ConnectionController listening for LIST/STATUS/PAUSE/RESUME/STOP/
//	    ADD/REMOVE commands (Figure 9 of the paper).
//
// demo, run and serve accept -obs addr to serve the engine introspection
// layer (/metrics in Prometheus format, /debug/pprof/, /workflows,
// /provenance?wave=t<root>-<seq>, /healthz) while the workflow runs;
// -sample sets the fraction of waves traced and -prov raises the lineage
// retention. demo additionally accepts -shed maxLag to insert
// a load-shedding actor after the source and report its drop counters, and
// -slo to attach the continuous QoS monitor (live latency quantiles and
// burn-rate alerting on /slo, post-mortem dumps on /debug/flightrecorder).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	confluence "repro"
	"repro/internal/actors"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "taxonomy":
		err = taxonomy()
	case "demo":
		err = demo(os.Args[2:])
	case "run":
		err = runSpec(os.Args[2:])
	case "vet":
		err = vetSpecs(os.Args[2:])
	case "types":
		err = listTypes()
	case "serve":
		err = serve(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "confluence: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: confluence <taxonomy|demo|run|vet|types|serve> [flags]")
}

// specDiagnostic is one vet finding attributed to its spec file.
type specDiagnostic struct {
	Spec string `json:"spec"`
	confluence.ValidationDiagnostic
}

// vetSpecs statically validates workflow specifications without running
// them: it builds each spec and applies confluence.Validate plus spec-level
// checks (scheduler policy, priority references). Exit is nonzero only when
// an error-severity diagnostic (or a build failure) is found.
func vetSpecs(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: confluence vet [-json] <spec.json>...")
	}
	var all []specDiagnostic
	failed := false
	for _, path := range fs.Args() {
		diags, err := vetOneSpec(path)
		if err != nil {
			failed = true
			diags = append(diags, confluence.ValidationDiagnostic{
				Severity: confluence.SevError, Rule: "build", Path: path, Message: err.Error(),
			})
		}
		for _, d := range diags {
			if d.Severity == confluence.SevError {
				failed = true
			}
			all = append(all, specDiagnostic{Spec: path, ValidationDiagnostic: d})
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []specDiagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			return err
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s: %s\n", d.Spec, d.ValidationDiagnostic)
		}
		if !failed {
			fmt.Printf("%d spec(s) clean (%d non-error diagnostics)\n", fs.NArg(), len(all))
		}
	}
	if failed {
		return fmt.Errorf("validation failed")
	}
	return nil
}

// vetOneSpec builds one spec and returns its diagnostics.
func vetOneSpec(path string) ([]confluence.ValidationDiagnostic, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := spec.Parse(f)
	if err != nil {
		return nil, err
	}
	wf, _, err := s.Build()
	if err != nil {
		return nil, err
	}
	diags := confluence.Validate(wf)
	// Spec-level checks the graph validator cannot see.
	if p := s.Scheduler.Policy; p != "" && p != "PNCWF" {
		if _, err := confluence.NewScheduler(p, 0); err != nil {
			diags = append(diags, confluence.ValidationDiagnostic{
				Severity: confluence.SevError, Rule: "scheduler-policy", Path: "scheduler",
				Message: err.Error(),
			})
		}
	}
	for name := range s.Scheduler.Priorities {
		if wf.Actor(name) == nil {
			diags = append(diags, confluence.ValidationDiagnostic{
				Severity: confluence.SevWarning, Rule: "priority-reference", Path: "scheduler.priorities." + name,
				Message: "priority assigned to an actor the workflow does not declare",
			})
		}
	}
	return diags, nil
}

// obsFlags is the shared introspection flag set: -obs, -sample, plus the
// cluster/provenance trio (-node, -prov, -peers) and -latency.
type obsFlags struct {
	addr    *string
	sample  *float64
	node    *string
	prov    *bool
	peers   *string
	latency *bool
}

func addObsFlags(fs *flag.FlagSet) obsFlags {
	return obsFlags{
		addr:    fs.String("obs", "", "serve introspection (metrics/pprof/trace) on this address"),
		sample:  fs.Float64("sample", 1.0, "fraction of waves traced (with -obs)"),
		node:    fs.String("node", "", "stable node name for cluster identity (with -obs)"),
		prov:    fs.Bool("prov", false, "raise lineage retention from the newest 4096 hops to ~65K (with -obs)"),
		peers:   fs.String("peers", "", "comma-separated peer obs addresses for /cluster and cluster-scoped /provenance"),
		latency: fs.Bool("latency", false, "enable critical-path latency attribution on /latency (with -obs; implies -prov's retention)"),
	}
}

// startObs starts the introspection server when -obs is set and returns
// the observer (nil when off).
func startObs(f obsFlags) (*confluence.Observer, error) {
	if *f.addr == "" {
		return nil, nil
	}
	opts := confluence.ObserveOptions{
		SampleRate: *f.sample,
		NodeName:   *f.node,
		Provenance: *f.prov,
		Latency:    *f.latency,
	}
	if *f.peers != "" {
		for _, p := range strings.Split(*f.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Peers = append(opts.Peers, p)
			}
		}
	}
	o, err := confluence.Observe(*f.addr, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("introspection: http://%s/ (/metrics /workflows /provenance /latency /cluster /healthz /debug/pprof/)\n", o.Addr())
	return o, nil
}

// lingerObs keeps the introspection server up after the workflow completes
// so its final state can still be scraped; interrupt (ctrl-C) exits.
func lingerObs(o *confluence.Observer) {
	if o == nil {
		return
	}
	fmt.Printf("introspection: workflow done, still serving on http://%s/ — interrupt to exit\n", o.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	o.Close()
}

// taxonomy prints Table 1.
func taxonomy() error {
	fmt.Println("Table 1: Taxonomy of Directors found in Kepler (first group) and PtolemyII")
	fmt.Println("(second group) as well as our PNCWF Director")
	fmt.Printf("%-8s %-12s %-38s %-24s %-30s %-22s %s\n",
		"Director", "Group", "Actor Interaction", "Computation Driver", "Scheduling", "Time based", "QoS")
	for _, row := range model.Taxonomy() {
		fmt.Printf("%-8s %-12s %-38s %-24s %-30s %-22s %s\n",
			row.Name, row.Group, row.ActorInteraction, row.ComputationDriver,
			row.Scheduling, row.TimeBased, row.QoS)
	}
	return nil
}

// runSpec executes a JSON workflow specification.
func runSpec(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	override := fs.String("scheduler", "", "override the spec's scheduling policy")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: confluence run [-scheduler P] <spec.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := spec.Parse(f)
	if err != nil {
		return err
	}
	wf, _, err := s.Build()
	if err != nil {
		return err
	}
	// Continuous workflows run forever; reject ill-formed graphs up front
	// and surface the risks the validator only warns about.
	diags := confluence.Validate(wf)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "vet: %s\n", d)
	}
	if confluence.HasErrors(diags) {
		return fmt.Errorf("spec %s failed validation; fix the errors above or inspect with confluence vet", fs.Arg(0))
	}
	policy := s.Scheduler.Policy
	if *override != "" {
		policy = *override
	}
	st := stats.NewRegistry()
	observer, err := startObs(of)
	if err != nil {
		return err
	}
	start := time.Now()
	err = confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler:      policy,
		Quantum:        time.Duration(s.Scheduler.QuantumUs) * time.Microsecond,
		Priorities:     s.Scheduler.Priorities,
		SourceInterval: s.Scheduler.SourceInterval,
		Stats:          st,
		Observer:       observer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("workflow %s completed in %v\n", s.Name, time.Since(start).Round(time.Millisecond))
	for _, na := range st.SnapshotSorted() {
		fmt.Printf("  %-14s invocations=%-6d avgCost=%-10v in=%-6d out=%d\n",
			na.Name, na.Invocations, na.AvgCost().Round(time.Microsecond), na.InputEvents, na.OutputEvents)
	}
	lingerObs(observer)
	return nil
}

// listTypes prints the registered specification actor types.
func listTypes() error {
	for _, n := range spec.TypeNames() {
		fmt.Println(n)
	}
	return nil
}

// demo runs a windowed pipeline under the chosen director.
func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	scheduler := fs.String("scheduler", "QBS", "QBS, RR, RB, FIFO, EDF or PNCWF")
	n := fs.Int("n", 1000, "events to generate")
	of := addObsFlags(fs)
	shed := fs.Duration("shed", 0, "insert a load shedder dropping readings staler than this lag")
	slo := fs.Bool("slo", false, "attach the continuous QoS monitor (/slo, /debug/flightrecorder; requires -obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slo && *of.addr == "" {
		return fmt.Errorf("demo: -slo requires -obs")
	}

	wf := confluence.NewWorkflow("demo")
	epoch := time.Now().Add(-time.Duration(*n) * time.Millisecond)
	src := confluence.NewGenerator("readings", epoch, time.Millisecond, *n, func(i int) confluence.Value {
		return confluence.NewRecord(
			"sensor", confluence.Int(i%4),
			"reading", confluence.Float(float64(i%100)),
		)
	})
	avg := confluence.NewAggregate("avg4", confluence.WindowSpec{
		Unit: confluence.Tuples, Size: 4, Step: 4, GroupBy: []string{"sensor"},
	}, func(w *confluence.Window) confluence.Value {
		sum := 0.0
		for i := range w.Len() {
			sum += w.Record(i).Float("reading")
		}
		return confluence.Float(sum / float64(w.Len()))
	})
	sink := confluence.NewCollect("sink")
	wf.MustAdd(src, avg, sink)
	var shedder *actors.Shedder
	if *shed > 0 {
		shedder = confluence.NewShedder("shedder", *shed)
		wf.MustAdd(shedder)
		wf.MustConnect(src.Out(), shedder.In())
		wf.MustConnect(shedder.Out(), avg.In())
	} else {
		wf.MustConnect(src.Out(), avg.In())
	}
	wf.MustConnect(avg.Out(), sink.In())

	st := stats.NewRegistry()
	observer, err := startObs(of)
	if err != nil {
		return err
	}
	if *slo {
		qm := confluence.NewQoSMonitor(observer, confluence.QoSOptions{})
		qm.SetPolicy(*scheduler)
		qm.AddSLO(confluence.SLO{
			Name:      "demo-latency",
			Sink:      "sink",
			Target:    0.99,
			Threshold: 5 * time.Second,
		})
		fmt.Printf("qos: monitoring sink latency (http://%s/slo, /debug/flightrecorder)\n", observer.Addr())
	}
	start := time.Now()
	err = confluence.Run(context.Background(), wf, confluence.RunOptions{
		Scheduler: *scheduler,
		Stats:     st,
		Observer:  observer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("demo: %d readings -> %d window averages under %s in %v\n",
		*n, len(sink.Tokens), *scheduler, time.Since(start).Round(time.Millisecond))
	if shedder != nil {
		fmt.Printf("  shedder: dropped=%d passed=%d (maxLag=%v)\n",
			shedder.Dropped(), shedder.Passed(), shedder.MaxLag())
	}
	for _, na := range st.SnapshotSorted() {
		fmt.Printf("  %-10s invocations=%-6d avgCost=%-10v selectivity=%.2f\n",
			na.Name, na.Invocations, na.AvgCost().Round(time.Microsecond), na.Selectivity())
	}
	lingerObs(observer)
	return nil
}

// serve starts multi-workflow mode with the ConnectionController.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "controller listen address")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	observer, err := startObs(of)
	if err != nil {
		return err
	}
	defer observer.Close()
	global := confluence.NewGlobal()
	ctrl, err := confluence.NewConnectionController(global, *addr)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	// Register a demo pipeline factory so ADD has something to build:
	//   ADD pipeline mywf 2
	ctrl.RegisterFactory("pipeline", func() (*confluence.Workflow, confluence.Director, error) {
		wf := confluence.NewWorkflow("pipeline")
		src := confluence.NewGenerator("src", time.Now(), 10*time.Millisecond, 1_000_000,
			func(i int) confluence.Value { return confluence.Int(i) })
		sink := confluence.NewCollect("sink")
		wf.MustAdd(src, sink)
		wf.MustConnect(src.Out(), sink.In())
		dir, err := confluence.NewDirector(confluence.RunOptions{Scheduler: "RR", Observer: observer})
		if err == nil {
			observer.Watch(wf.Name(), wf, nil, dir)
		}
		return wf, dir, err
	})

	fmt.Printf("confluence: multi-workflow mode, controller on %s\n", ctrl.Addr())
	fmt.Println("confluence: commands: LIST | STATUS <wf> | PAUSE <wf> | RESUME <wf> | STOP <wf> | ADD pipeline <wf> [share] | REMOVE <wf> | QUIT")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Run the global scheduler; with no instances it waits for ADDs.
	for ctx.Err() == nil {
		if err := global.Run(ctx); err != nil && ctx.Err() == nil {
			return err
		}
		if ctx.Err() == nil {
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}
