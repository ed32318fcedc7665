package main

import (
	"fmt"
	"runtime"
	"time"

	"schism/internal/core"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// plan-tpcc: the offline pipeline, core.Run with default options (clique
// graph, explanation, validation), on TPC-C traces. Each plan of a run
// uses a different trace drawn from the run's seed.

// planShape fixes the workload's size; tests shrink it.
type planShape struct {
	tpcc workloads.TPCCConfig // Seed is set per trace
	k    int
	// pool is the number of distinct traces; a run plans each at least
	// once, so the deterministic counts are over the whole pool.
	pool int
}

var planDefault = planShape{
	tpcc: workloads.TPCCConfig{Warehouses: 8, Districts: 10, Customers: 10, Items: 100, InitialOrders: 5, Txns: 12000},
	k:    4,
	pool: 4,
}

// planInput is one trace ready to plan.
type planInput struct {
	w        *workloads.Workload
	resolver partition.Resolver
	test     *workload.Trace // the held-out half core.Run validates on
	seed     int64
}

// derivedSeed gives the i-th input of a run its own seed.
func derivedSeed(seed int64, i int) int64 { return seed*1009 + int64(i) + 1 }

func newPlanInput(shape planShape, seed int64) *planInput {
	cfg := shape.tpcc
	cfg.Seed = seed
	w := workloads.TPCC(cfg)
	_, test := w.Trace.Split(0.5)
	return &planInput{w: w, resolver: w.Resolver(), test: test, seed: seed}
}

// planOutcome is one plan's measured time and deterministic counts.
type planOutcome struct {
	elapsed  time.Duration
	timings  core.Timings
	distPct  float64
	routeKB  float64
	nodes    int
	edges    int
	edgeCut  int64
	chosen   string
	checkErr error
}

func planOnce(in *planInput, k int) (planOutcome, error) {
	start := time.Now()
	res, err := core.Run(core.Input{
		Trace: in.w.Trace, Resolver: in.resolver, KeyColumns: in.w.KeyColumns, DB: in.w.DB,
	}, core.Options{Partitions: k, Seed: in.seed})
	elapsed := time.Since(start)
	if err != nil {
		return planOutcome{}, err
	}
	return planOutcome{
		elapsed:  elapsed,
		timings:  res.Timings,
		distPct:  100 * res.Costs[res.ChosenName].DistributedFrac(),
		routeKB:  float64(res.Lookup.MemoryBytes()) / 1024,
		nodes:    res.Stats.Nodes,
		edges:    res.Stats.Edges,
		edgeCut:  res.EdgeCut,
		chosen:   res.ChosenName,
		checkErr: checkPlan(in, res, k),
	}, nil
}

// checkPlan verifies a plan's outputs: every lookup placement lies in
// [0,k), and re-evaluating the chosen strategy on the held-out trace
// reproduces the cost the validation phase reported.
func checkPlan(in *planInput, res *core.Result, k int) error {
	for id := range res.Assignments {
		parts := res.Lookup.Locate(id, nil)
		if len(parts) == 0 {
			return fmt.Errorf("lookup places %v nowhere", id)
		}
		for _, p := range parts {
			if p < 0 || p >= k {
				return fmt.Errorf("lookup places %v on partition %d of %d", id, p, k)
			}
		}
	}
	got := partition.Evaluate(in.test, res.Chosen, in.resolver)
	if want := res.Costs[res.ChosenName]; got != want {
		return fmt.Errorf("%s re-evaluates to %+v, validation reported %+v", res.ChosenName, got, want)
	}
	return nil
}

func runPlan(cfg runConfig) (*Result, error) {
	return runPlanShape(cfg, planDefault)
}

func runPlanShape(cfg runConfig, shape planShape) (*Result, error) {
	pool, setupSecs, err := setupEach(shape.pool, func(i int) (*planInput, error) {
		return newPlanInput(shape, derivedSeed(cfg.seed, i)), nil
	})
	if err != nil {
		return nil, err
	}
	// One unmeasured plan first: a process's first plan also pays for
	// mapping its heap (page faults over ~1.7 GB) and runs 20-30% slower
	// than later ones, which reuse the mapped pages.
	if _, err := planOnce(pool[0], shape.k); err != nil {
		return nil, err
	}

	start := time.Now()
	var outs []planOutcome
	var peaks []float64
	var rt runtimeDelta
	res := &Result{Correct: true, Metrics: Metrics{}}
	for i := 0; i < len(pool) || time.Since(start) < cfg.measure; i++ {
		res.Attempted++
		// Each plan starts from a collected heap, so one plan's garbage
		// does not tax the next.
		runtime.GC()
		rss := startRSS()
		rt.begin()
		o, err := planOnce(pool[i%len(pool)], shape.k)
		rt.end()
		peaks = append(peaks, rss.stopMB())
		if err == nil {
			err = o.checkErr
			cfg.logf("plan %d: %v, peak %.0f MB", i, o.elapsed, peaks[len(peaks)-1])
		}
		if err != nil {
			cfg.logf("plan %d: %v", i, err)
			res.Failed++
			res.Correct = false
			continue
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no plan succeeded")
	}

	var planMS []float64
	var total time.Duration
	for _, o := range outs {
		planMS = append(planMS, ms(o.elapsed))
		total += o.elapsed
	}
	// Deterministic counts: one plan per pool input, in pool order.
	first := outs[:min(len(pool), len(outs))]
	avg := func(f func(o planOutcome) float64) float64 {
		var xs []float64
		for _, o := range first {
			xs = append(xs, f(o))
		}
		return mean(xs)
	}

	m := res.Metrics
	if !cfg.trace {
		m.set("setup_s", setupSecs, "s")
		m.set("peak_rss_mb", median(peaks), "MB")
		m.set("dist_pct", avg(func(o planOutcome) float64 { return o.distPct }), "%")
		m.set("routing_kb", avg(func(o planOutcome) float64 { return o.routeKB }), "KB")
		m.set("p50_ms", median(planMS), "ms")
		m.set("ops_per_s", float64(len(outs))/total.Seconds(), "1/s")
		return res, nil
	}

	// Per-layer: phase means, so the phases plus the residual add up to
	// the mean plan time exactly.
	var graphMS, cutMS, explainMS, validateMS, untimedMS []float64
	for _, o := range outs {
		t := o.timings
		graphMS = append(graphMS, ms(t.Graph))
		cutMS = append(cutMS, ms(t.Partition))
		explainMS = append(explainMS, ms(t.Explain))
		validateMS = append(validateMS, ms(t.Validate))
		untimedMS = append(untimedMS, ms(o.elapsed-t.Total()))
	}
	m.set("graph.build_ms", mean(graphMS), "ms")
	m.set("metis.cut_ms", mean(cutMS), "ms")
	m.set("dtree.explain_ms", mean(explainMS), "ms")
	m.set("partition.validate_ms", mean(validateMS), "ms")
	m.set("core.untimed_ms", mean(untimedMS), "ms")
	m.set("op.mean_ms", mean(planMS), "ms")
	m.set("graph.nodes", avg(func(o planOutcome) float64 { return float64(o.nodes) }), "count")
	m.set("graph.edges", avg(func(o planOutcome) float64 { return float64(o.edges) }), "count")
	m.set("metis.edgecut", avg(func(o planOutcome) float64 { return float64(o.edgeCut) }), "count")
	rt.set(m, int64(len(outs)))
	res.Attempted++ // the residual check
	if err := checkResidual(untimedMS); err != nil {
		cfg.logf("plan phases: %v", err)
		res.Failed++
		res.Correct = false
	}
	return res, nil
}

// checkResidual verifies that the layer timers nest inside the op timer:
// a negative residual would mean the phases overlap or overrun the op.
func checkResidual(residualMS []float64) error {
	for i, r := range residualMS {
		if r < 0 {
			return fmt.Errorf("op %d: phases exceed the op time by %.3f ms", i, -r)
		}
	}
	return nil
}
