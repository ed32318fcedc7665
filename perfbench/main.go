// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed measurement time and prints,
// as its last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics (see
// BENCHMARK.json at the repository root); with -trace 1 the run splits
// its time into an untraced and a traced half and reports the per-layer
// metrics plus the tracing overhead. The line before the result is an
// "env" record (Go version, GOMAXPROCS, CPU, commit, seed) that the noise
// tool (./noise) uses to group results.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload oltp-tpcc --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Metric is one named value of a run's result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics collects a run's named values.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// Result is the line every run ends with.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// runConfig is what a workload needs to run once.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	// logf reports progress and check failures on standard error.
	logf func(format string, args ...any)
}

// workloadFunc runs one workload and returns its result line.
type workloadFunc func(cfg runConfig) (*Result, error)

var workloadTable = map[string]workloadFunc{
	"plan-tpcc":    runPlan,
	"adapt-tpcc":   runAdapt,
	"oltp-tpcc":    runOLTPTPCC,
	"oltp-ycsb-r3": runOLTPYCSB,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadTable))
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics")
	flag.Parse()

	fn, ok := workloadTable[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		logf:    func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	env := captureEnv(*name, *seed, *seconds, *trace)
	res, err := fn(cfg)
	if err == nil {
		err = finalize(res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
