package main

import (
	"fmt"

	"schism/internal/cluster"
)

// metricSpec names one metric and its unit. The lists below are the
// metrics BENCHMARK.json declares; a test keeps the two equal.
type metricSpec struct{ name, unit string }

// endToEnd metrics are reported by every workload with -trace 0. Each
// workload has one kind of op: a plan (plan-tpcc), a repartitioning cycle
// (adapt-tpcc) or a committed transaction (oltp-*).
var endToEnd = []metricSpec{
	{"setup_s", "s"},      // median set-up time of the run's inputs
	{"peak_rss_mb", "MB"}, // peak resident set during the measurement
	{"dist_pct", "%"},     // distributed share of transactions
	{"routing_kb", "KB"},  // routing table the plan deploys
	{"p50_ms", "ms"},      // median op latency
	{"ops_per_s", "1/s"},  // ops completed per second of op time
}

// perLayer metrics are reported by every workload with -trace 1; a layer
// the workload does not exercise reads 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"op.mean_ms", "ms"},
		{"op.tail_ms", "ms"},
		{"failed_pct", "%"},
		{"obs.overhead_pct", "%"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_pct", "%"},
		// plan-tpcc: core.Result.Timings and Stats.
		{"graph.build_ms", "ms"},
		{"metis.cut_ms", "ms"},
		{"dtree.explain_ms", "ms"},
		{"partition.validate_ms", "ms"},
		{"core.untimed_ms", "ms"},
		{"graph.nodes", "count"},
		{"graph.edges", "count"},
		{"metis.edgecut", "count"},
		// adapt-tpcc: cycle stages.
		{"live.snapshot_ms", "ms"},
		{"live.score_ms", "ms"},
		{"live.graph_ms", "ms"},
		{"live.cut_ms", "ms"},
		{"live.relabel_ms", "ms"},
		{"live.plan_ms", "ms"},
		{"live.untimed_ms", "ms"},
		{"live.full_cycles", "count"},
		{"live.warm_cycles", "count"},
		{"live.moved_per_cycle", "count"},
		{"live.naive_moved", "count"},
		{"live.offline_gap_pp", "pp"},
		// oltp-*: coordinator, 2PC, locks, WAL, replication, driver.
		{"2pc.route_us_p50", "us"},
		{"2pc.route_us_p99", "us"},
		{"2pc.prepare_us_p50", "us"},
		{"2pc.prepare_us_p99", "us"},
		{"2pc.commit_us_p50", "us"},
		{"2pc.commit_us_p99", "us"},
		{"txn.two_phase_pct", "%"},
		{"route.locate_ns", "ns"},
		{"route.locates_per_txn", "count"},
		{"txn.abort_pct", "%"},
		{"txn.backoff_ms_per_ktxn", "ms"},
	}
	for _, cause := range cluster.RetryCauses {
		specs = append(specs, metricSpec{"txn.retry." + cause, "count"})
	}
	return append(specs,
		metricSpec{"wal.force_us_p50", "us"},
		metricSpec{"wal.force_us_p99", "us"},
		metricSpec{"repl.append_quorum_us_p50", "us"},
		metricSpec{"repl.append_quorum_us_p99", "us"},
		metricSpec{"repl.commit_apply_us_p50", "us"},
		metricSpec{"repl.commit_apply_us_p99", "us"},
		metricSpec{"repl.lease_refused", "count"},
		metricSpec{"driver.stmt_p50_us", "us"},
		metricSpec{"driver.stmt_p99_us", "us"},
		metricSpec{"cluster.imbalance", "ratio"},
	)
}()

// finalize completes a workload's result: a traced result gets failed_pct
// and a zero for every layer the workload did not exercise; an untraced
// one must carry every end-to-end metric and nothing else.
func finalize(res *Result, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
		if res.Attempted > 0 {
			res.Metrics.set("failed_pct", 100*float64(res.Failed)/float64(res.Attempted), "%")
		}
	}
	known := make(map[string]string, len(specs))
	for _, s := range specs {
		known[s.name] = s.unit
		if _, ok := res.Metrics[s.name]; !ok {
			if !traced {
				return fmt.Errorf("end-to-end metric %s missing", s.name)
			}
			res.Metrics.set(s.name, 0, s.unit)
		}
	}
	for name, m := range res.Metrics {
		unit, ok := known[name]
		if !ok {
			return fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %s, listed as %s", name, m.Unit, unit)
		}
	}
	return nil
}
