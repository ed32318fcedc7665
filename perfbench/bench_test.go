package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"schism/internal/driver"
	"schism/internal/workloads"
)

// Small shapes keep the tests quick; they run the same code as the
// benchmark's full-size workloads.
var (
	smallPlan = planShape{
		tpcc: workloads.TPCCConfig{Warehouses: 2, Districts: 10, Customers: 10, Items: 100, InitialOrders: 5, Txns: 1500},
		k:    2,
		pool: 2,
	}
	smallAdapt = adaptShape{
		tpcc:   workloads.TPCCConfig{Warehouses: 4, Districts: 5, Customers: 10, Items: 100, InitialOrders: 5},
		k:      2,
		window: 600, chunk: 50, cycles: 16, rotate: 300, hotFrac: 0.3,
		pool: 2,
	}
	smallTPCC = oltpShape{
		k: 2, replication: 1, clients: 2, warmupOps: 20, segmentOps: 150, setups: 2,
		build: tpccOLTP(workloads.TPCCConfig{Warehouses: 2, Districts: 10, Customers: 10, Items: 100, InitialOrders: 5, Txns: 1500}),
	}
	smallYCSB = oltpShape{
		k: 2, replication: 3, clients: 2, warmupOps: 20, segmentOps: 150, setups: 2,
		build: ycsbOLTP(workloads.YCSBGroupsConfig{Rows: 480, GroupSize: 4, Txns: 600}),
	}
)

func quietConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, measure: time.Second, trace: trace, logf: t.Logf}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsRunAndCheck runs every workload, untraced and traced, at
// a small shape: each must pass its correctness checks and print exactly
// its metric list.
func TestWorkloadsRunAndCheck(t *testing.T) {
	runs := map[string]func(cfg runConfig) (*Result, error){
		"plan":  func(cfg runConfig) (*Result, error) { return runPlanShape(cfg, smallPlan) },
		"adapt": func(cfg runConfig) (*Result, error) { return runAdaptShape(cfg, smallAdapt) },
		"tpcc":  func(cfg runConfig) (*Result, error) { return runOLTP(cfg, smallTPCC) },
		"ycsb":  func(cfg runConfig) (*Result, error) { return runOLTP(cfg, smallYCSB) },
	}
	for name, fn := range runs {
		for _, traced := range []bool{false, true} {
			res, err := fn(quietConfig(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := finalize(res, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced {
				continue
			}
			for _, s := range endToEnd {
				if res.Metrics[s.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, s.name, res.Metrics[s.name].Value)
				}
			}
		}
	}
}

// deterministicCounts gathers every count the benchmark reports as
// deterministic, for one seed.
type deterministicCounts struct {
	Plan  []planCounts
	Adapt adaptCounts
	Sigs  [][]uint64
}

type planCounts struct {
	DistPct, RouteKB float64
	Nodes, Edges     int
	EdgeCut          int64
	Chosen           string
}

func collectCounts(t *testing.T, seed int64) deterministicCounts {
	t.Helper()
	var c deterministicCounts
	outs, err := planFirstPass(smallPlan, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		c.Plan = append(c.Plan, planCounts{o.distPct, o.routeKB, o.nodes, o.edges, o.edgeCut, o.chosen})
	}
	if c.Adapt, err = adaptFirstPass(smallAdapt, seed); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []oltpShape{smallTPCC, smallYCSB} {
		p, err := planOLTP(shape, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := deploy(shape, p, false)
		if err != nil {
			t.Fatal(err)
		}
		r := driver.Run(d.co, driver.Config{Clients: shape.clients, Ops: 200, Seed: seed}, p.data.stream)
		d.c.Close()
		c.Sigs = append(c.Sigs, r.ClientSigs)
	}
	return c
}

// TestDeterministicCounts: the counts the benchmark reports as
// deterministic repeat exactly across runs and across GOMAXPROCS.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	const seed = 5
	first := collectCounts(t, seed)
	again := collectCounts(t, seed)
	prev := runtime.GOMAXPROCS(1)
	single := collectCounts(t, seed)
	runtime.GOMAXPROCS(prev)

	for name, other := range map[string]deterministicCounts{"second run": again, "GOMAXPROCS=1": single} {
		if !reflect.DeepEqual(first, other) {
			t.Errorf("%s differs:\n%+v\n%+v", name, first, other)
		}
	}
	if first.Adapt.full == 0 || first.Adapt.warm == 0 {
		t.Errorf("adapt pass ran %d full and %d warm cycles, want both", first.Adapt.full, first.Adapt.warm)
	}
}

// planFirstPass plans every pool input once and returns the outcomes:
// the deterministic part of plan-tpcc.
func planFirstPass(shape planShape, seed int64) ([]planOutcome, error) {
	var outs []planOutcome
	for i := 0; i < shape.pool; i++ {
		o, err := planOnce(newPlanInput(shape, derivedSeed(seed, i)), shape.k)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// adaptFirstPass plays every pool round once: the deterministic part of
// adapt-tpcc.
func adaptFirstPass(shape adaptShape, seed int64) (adaptCounts, error) {
	var rounds []adaptRoundResult
	for i := 0; i < shape.pool; i++ {
		r, err := newAdaptRound(shape, derivedSeed(seed, i))
		if err != nil {
			return adaptCounts{}, err
		}
		rr, err := runAdaptRound(shape, r, time.Time{}, false)
		if err != nil {
			return adaptCounts{}, err
		}
		if rr.checkErr != nil {
			return adaptCounts{}, rr.checkErr
		}
		rounds = append(rounds, rr)
	}
	return countAdapt(rounds), nil
}
