// Command compare sets two result files of the benchmark side by side: one
// row per workload and end-to-end metric with both values, the ratio with
// its base, and a verdict from the bounds in BENCHMARK.json.
//
//	cd benchmark && go run ./compare baseline/seed-a.json baseline/seed-b.json
//
// The first file is the base. A file may hold several runs of a workload
// (several seeds, say); a side's value is then the median of its runs. It
// exits 1 on any worse row, or where a larger share of operations failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/benchmark/spec"
)

// Verdict is what a row concludes.
type Verdict string

const (
	Better     Verdict = "better"
	Same       Verdict = "same"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// judge compares one metric's runs on the two sides. A difference inside the
// bound is "same". Where either side's own runs spread wider than the bound
// the medians settle nothing: the row is unresolved unless every run of one
// side beats every run of the other.
func judge(m spec.Metric, base, cand []float64) (Verdict, float64, float64) {
	if len(base) == 0 || len(cand) == 0 {
		return Unresolved, median(base), median(cand)
	}
	higher := m.Better == "higher"
	b, c := median(base), median(cand)
	// gain > 0 when the candidate is better, as a share of the base.
	gain := (c - b) / b
	if !higher {
		gain = -gain
	}
	if spread(base) > m.Bound || spread(cand) > m.Bound {
		bmin, bmax := minmax(base)
		cmin, cmax := minmax(cand)
		above, below := cmin > bmax, cmax < bmin
		switch {
		case higher && above, !higher && below:
			return Better, b, c
		case gain < -m.Bound && (higher && below || !higher && above):
			return Worse, b, c
		}
		return Unresolved, b, c
	}
	switch {
	case gain < -m.Bound:
		return Worse, b, c
	case gain > m.Bound:
		return Better, b, c
	}
	return Same, b, c
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minmax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// spread is a side's own range as a share of its median.
func spread(xs []float64) float64 {
	lo, hi := minmax(xs)
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// side gathers one file's untraced runs by workload.
type side struct {
	values            map[string]map[string][]float64 // workload → metric → runs
	attempted, failed map[string]int64
}

func gather(f *spec.File) side {
	s := side{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s
}

// row is one line of the comparison.
type row struct {
	workload, metric, unit string
	base, cand             float64
	verdict                Verdict
}

// compare builds every row and reports whether the candidate regressed.
func compare(b *spec.Benchmark, base, cand *spec.File) (rows []row, failedMore []string) {
	bs, cs := gather(base), gather(cand)
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			v, bv, cv := judge(m, bs.values[w.Name][m.Name], cs.values[w.Name][m.Name])
			rows = append(rows, row{w.Name, m.Name, m.Unit, bv, cv, v})
		}
		share := func(s side) float64 {
			if s.attempted[w.Name] == 0 {
				return 0
			}
			return float64(s.failed[w.Name]) / float64(s.attempted[w.Name])
		}
		if share(cs) > share(bs) {
			failedMore = append(failedMore, fmt.Sprintf("%s: failed share %.2g, base %.2g", w.Name, share(cs), share(bs)))
		}
	}
	return rows, failedMore
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark's contract, for the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] base.json candidate.json")
		os.Exit(2)
	}
	b, err := spec.LoadBenchmark(*specPath)
	var files [2]*spec.File
	for i := 0; i < 2 && err == nil; i++ {
		files[i], err = spec.LoadFile(flag.Arg(i))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	rows, failedMore := compare(b, files[0], files[1])
	code := 0
	fmt.Printf("%-14s %-24s %14s %14s  %-18s %s\n", "workload", "metric", "base", "candidate", "candidate/base", "verdict")
	for _, r := range rows {
		ratio := "-"
		if r.base != 0 {
			ratio = fmt.Sprintf("%.3f of %.4g %s", r.cand/r.base, r.base, r.unit)
		}
		fmt.Printf("%-14s %-24s %14.4f %14.4f  %-18s %s\n", r.workload, r.metric, r.base, r.cand, ratio, r.verdict)
		if r.verdict == Worse {
			code = 1
		}
	}
	for _, msg := range failedMore {
		fmt.Println(msg)
		code = 1
	}
	os.Exit(code)
}
