// Package spec holds the two file formats the benchmark and its compare
// tool share: BENCHMARK.json (the contract: workloads, metrics, bounds) and
// the result file the benchmark writes with -out.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
)

// Benchmark mirrors BENCHMARK.json at the root of the repo.
type Benchmark struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names one set of inputs and says why it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one named measurement. Bound is the share of the base value by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a single-workload run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Run is one workload's entry in a result file: the printed result plus
// what is needed to repeat and to trust it.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result
	// Params are the workload's frozen rates and sizes at this run length.
	Params map[string]float64 `json:"params"`
	// Samples counts the observations behind each reported statistic.
	Samples map[string]int `json:"samples"`
}

// File is a result file: where and how the runs were taken, then the runs.
type File struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Runs       []Run  `json:"runs"`
}

// LoadFile reads a result file.
func LoadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
