// Command benchmark is the engine's one wall-clock benchmark: it builds each
// workload through the public constructors, drives it from this process,
// checks its outputs against an oracle and prints every metric by name and
// unit. See README.md in this directory.
//
//	bash benchmark/run.sh                          every workload, end to end
//	bash benchmark/run.sh --workload pipe_scwf     one workload
//	bash benchmark/run.sh --trace 1                per-layer metrics, span files
//	bash benchmark/run.sh --layers                 layer operations at length, hop budgets
//	bash benchmark/run.sh --out result.json        also write a result file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/benchmark/spec"
)

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string {
	var names []string
	for _, w := range rtWorkloads {
		names = append(names, w.name)
	}
	return append(names, "lr_virtual")
}

// run measures one workload by name.
func run(name string, pl plan) (*outcome, error) {
	if name == "lr_virtual" {
		return runLR(pl), nil
	}
	for _, w := range rtWorkloads {
		if w.name == name {
			if pl.trace {
				return w.runTraced(pl), nil
			}
			return w.runUntraced(pl), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 42, "inputs are generated from this seed")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one workload measures")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead")
		layers   = flag.Bool("layers", false, "time the layer operations at length and print the pipes' hop budgets")
		out      = flag.String("out", "", "also write the results, with their provenance, to this file")
	)
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive; no positional arguments")
		os.Exit(2)
	}
	// The box has two cores; every number is taken with both in use.
	runtime.GOMAXPROCS(2)

	pl := defaultPlan(*seed, *seconds, *trace != 0)
	if *layers {
		os.Exit(report(layersOnly(pl), *out))
	}
	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
	}
	var outcomes []*outcome
	for _, name := range names {
		o, err := run(name, pl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		o.print()
		outcomes = append(outcomes, o)
	}
	os.Exit(report(outcomes, *out))
}

// layersOnly is -layers: every layer operation five times for 200 ms, then
// each bare pipe's hop budget from a short drain.
func layersOnly(pl plan) []*outcome {
	var outcomes []*outcome
	pl.reps = 3
	for _, w := range rtWorkloads {
		if w.hopPath == nil || w.bare != nil {
			continue
		}
		o := newOutcome(w.name, pl)
		if len(outcomes) == 0 {
			o.layers(200*time.Millisecond, 5)
		} else {
			// The operations do not depend on the workload.
			for _, op := range layerOps {
				o.Metrics[op.name] = outcomes[0].Metrics[op.name]
				o.Samples[op.name] = outcomes[0].Samples[op.name]
			}
		}
		if d, ok := w.drain(pl, o, false); ok {
			o.hopBudget(d.eps, pipeEdges, w.hopPath)
		}
		o.print()
		outcomes = append(outcomes, o)
	}
	return outcomes
}

// print lists the outcome's metrics by name and unit, then the result line.
func (o *outcome) print() {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-32s %16.4f %s\n", o.Workload, n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	fmt.Printf("%-14s attempted %d failed %d\n", o.Workload, o.Attempted, o.Failed)
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", o.err)
	}
	line, err := json.Marshal(o.Result)
	if err != nil {
		panic(err) // a Result holds only numbers and strings
	}
	fmt.Println(string(line))
}

// report writes the result file if asked and returns the exit code: 1 when
// any workload failed its oracle.
func report(outcomes []*outcome, path string) int {
	code := 0
	file := provenance()
	for _, o := range outcomes {
		if !o.Correct {
			code = 1
		}
		file.Runs = append(file.Runs, o.Run)
	}
	if path != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// provenance records where the numbers were taken.
func provenance() spec.File {
	f := spec.File{
		Commit: "unknown", CPUModel: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// Outside a git checkout the commit stays unknown.
	if raw, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return f
}
