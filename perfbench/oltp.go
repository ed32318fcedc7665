package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"schism/internal/cluster"
	"schism/internal/core"
	"schism/internal/driver"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// oltp-*: a plan learned by core.Run deployed on a simulated cluster and
// driven by closed-loop driver clients. Modeled delays (log force,
// network, service time) are all zero, so the figures measure engine CPU.
//
// The measurement is a series of segments. Each deploys a fresh cluster
// from the set-up's plan, warms it with a fixed number of transactions,
// then runs a fixed number per client and checks the outcome. Fixed work
// per segment keeps the data a segment inserts, and so its memory, the
// same however fast the program runs; the run reports medians over
// segments.

type oltpShape struct {
	k           int // partitions (replication groups)
	replication int // replicas per group
	clients     int
	warmupOps   int // per client and segment, not measured
	segmentOps  int // per client and segment, measured
	setups      int // set-ups per untraced run; setup_s is their median
	// build generates the data, trace and client streams from the seed.
	build func(seed int64) oltpData
}

// oltpData is one workload instance before planning.
type oltpData struct {
	w      *workloads.Workload
	stream driver.StreamMaker
	// snapshot reads the quantities the check compares, through the
	// coordinator; check compares two snapshots after a segment.
	snapshot func(co *cluster.Coordinator) (any, error)
	check    func(c *cluster.Cluster, before, after any) error
}

var oltpTPCCShape = oltpShape{
	k: 4, replication: 1, clients: 2, warmupOps: 250, segmentOps: 5000, setups: 3,
	build: tpccOLTP(workloads.TPCCConfig{Warehouses: 8, Districts: 10, Customers: 10, Items: 100, InitialOrders: 5, Txns: 12000}),
}

var oltpYCSBShape = oltpShape{
	k: 3, replication: 3, clients: 2, warmupOps: 1000, segmentOps: 20000, setups: 3,
	build: ycsbOLTP(workloads.YCSBGroupsConfig{Rows: 4000, GroupSize: 4, Txns: 4000}),
}

// tpccOLTP draws TPC-C NewOrder/Payment traffic; the check is payment
// money conservation.
func tpccOLTP(base workloads.TPCCConfig) func(seed int64) oltpData {
	return func(seed int64) oltpData {
		cfg := base
		cfg.Seed = seed
		return oltpData{
			w:        workloads.TPCC(cfg),
			stream:   workloads.TPCCNewOrderPaymentStream(cfg),
			snapshot: func(co *cluster.Coordinator) (any, error) { return readMoney(co, cfg) },
			check: func(_ *cluster.Cluster, before, after any) error {
				return checkMoney(before.(money), after.(money))
			},
		}
	}
}

// ycsbOLTP draws multi-key YCSB group transactions; the check is replica
// convergence.
func ycsbOLTP(base workloads.YCSBGroupsConfig) func(seed int64) oltpData {
	return func(seed int64) oltpData {
		cfg := base
		cfg.Seed = seed
		return oltpData{
			w:        workloads.YCSBGroups(cfg),
			stream:   workloads.YCSBGroupsStream(cfg),
			snapshot: func(*cluster.Coordinator) (any, error) { return nil, nil },
			check: func(c *cluster.Cluster, _, _ any) error {
				if !c.WaitReplicated(10 * time.Second) {
					return fmt.Errorf("replicas did not converge")
				}
				return nil
			},
		}
	}
}

func runOLTPTPCC(cfg runConfig) (*Result, error) { return runOLTP(cfg, oltpTPCCShape) }
func runOLTPYCSB(cfg runConfig) (*Result, error) { return runOLTP(cfg, oltpYCSBShape) }

// oltpPlan is the set-up's output: the workload and its learned plan.
type oltpPlan struct {
	data  oltpData
	strat *partition.Lookup
}

// planOLTP learns the schism lookup strategy for the workload.
func planOLTP(shape oltpShape, seed int64) (oltpPlan, error) {
	data := shape.build(seed)
	res, err := core.Run(core.Input{
		Trace: data.w.Trace, Resolver: data.w.Resolver(), KeyColumns: data.w.KeyColumns, DB: data.w.DB,
	}, core.Options{Partitions: shape.k, Seed: seed})
	if err != nil {
		return oltpPlan{}, err
	}
	return oltpPlan{data: data, strat: res.Lookup}, nil
}

// deployment is a running cluster holding the plan's placement.
type deployment struct {
	c     *cluster.Cluster
	co    *cluster.Coordinator
	reg   *obs.Registry  // nil when untraced
	route *timedStrategy // nil when untraced
}

// deploy builds a cluster holding the plan's placement. A traced
// deployment attaches an obs registry and times the router's calls into
// the strategy.
func deploy(shape oltpShape, p oltpPlan, traced bool) (*deployment, error) {
	d := &deployment{}
	var routing partition.Strategy = p.strat
	if traced {
		d.reg = obs.NewRegistry()
		d.route = &timedStrategy{Strategy: p.strat}
		routing = d.route
	}
	r := shape.replication
	d.c = cluster.New(cluster.Config{
		Nodes:             shape.k * r,
		ReplicationFactor: r,
		LockTimeout:       300 * time.Millisecond,
		Obs:               d.reg,
	}, func(node int) *storage.Database {
		return cluster.SplitDatabase(p.data.w.DB, p.strat, node/r)
	})
	d.co = cluster.NewCoordinator(d.c, routing)
	if !d.c.WaitForLeaders(10 * time.Second) {
		d.c.Close()
		return nil, fmt.Errorf("no group leaders elected")
	}
	return d, nil
}

// clientClock wraps a client stream to time each transaction exactly: a
// closed-loop client asks for its next op as soon as the previous one
// finished, so consecutive Next calls bound one transaction's
// client-observed latency, retries included.
type clientClock struct {
	inner driver.Stream
	marks []time.Time
}

func (c *clientClock) Next() driver.Op {
	c.marks = append(c.marks, time.Now())
	return c.inner.Next()
}

// segment is one segment's outcome.
type segment struct {
	r *driver.Result
	// latMS are the latencies of transactions that finished while every
	// client was still running, and opsPerS their completion rate: the
	// steady closed-loop window, without the ragged end where the first
	// client to finish has stopped.
	latMS   []float64
	opsPerS float64
	peakMB  float64
	rt      runtimeDelta // runtime counters over the measured run
	before  *obs.Snapshot
	after   *obs.Snapshot
	route   *timedStrategy
	errs    []error // failed checks
}

// runSegment deploys a fresh cluster, warms it, measures a fixed number
// of transactions per client and runs the checks.
func runSegment(shape oltpShape, p oltpPlan, seed int64, traced bool) (segment, error) {
	var seg segment
	runtime.GC()
	debug.FreeOSMemory() // each segment starts from the set-up's resident state
	d, err := deploy(shape, p, traced)
	if err != nil {
		return seg, err
	}
	defer d.c.Close()
	before, err := p.data.snapshot(d.co)
	if err != nil {
		return seg, err
	}
	// Warmup clients take ids past the measured ones: streams derive
	// their insert keys from the client id, so the two runs never collide.
	warm := func(client int, seed int64) driver.Stream { return p.data.stream(client+shape.clients, seed) }
	driver.Run(d.co, driver.Config{Clients: shape.clients, Ops: shape.warmupOps, Seed: seed ^ 0x5eed}, warm)

	clocks := make([]*clientClock, shape.clients)
	mk := func(client int, seed int64) driver.Stream {
		clocks[client] = &clientClock{inner: p.data.stream(client, seed)}
		return clocks[client]
	}
	seg.before = d.reg.Snapshot()
	seg.route = d.route
	rss := startRSS()
	seg.rt.begin()
	start := time.Now()
	seg.r = driver.Run(d.co, driver.Config{Clients: shape.clients, Ops: shape.segmentOps, Seed: seed}, mk)
	end := time.Now()
	seg.rt.end()
	seg.peakMB = rss.stopMB()
	seg.after = d.reg.Snapshot()

	// The steady window ends at the earliest client's final mark: after
	// it, that client runs no more transactions.
	cut := end
	for _, c := range clocks {
		if n := len(c.marks); n > 0 && c.marks[n-1].Before(cut) {
			cut = c.marks[n-1]
		}
	}
	done := 0
	for _, c := range clocks {
		for i := 1; i < len(c.marks) && !c.marks[i].After(cut); i++ {
			seg.latMS = append(seg.latMS, ms(c.marks[i].Sub(c.marks[i-1])))
			done++
		}
	}
	if span := cut.Sub(start); span > 0 {
		seg.opsPerS = float64(done) / span.Seconds()
	}

	if err := d.co.Drain(); err != nil {
		seg.errs = append(seg.errs, fmt.Errorf("drain: %w", err))
	} else if after, err := p.data.snapshot(d.co); err != nil {
		seg.errs = append(seg.errs, err)
	} else if err := p.data.check(d.c, before, after); err != nil {
		seg.errs = append(seg.errs, err)
	}
	if traced {
		got := seg.after.Counters["txn.committed"] - seg.before.Counters["txn.committed"]
		if got != seg.r.Committed {
			seg.errs = append(seg.errs, fmt.Errorf("obs txn.committed %d != driver committed %d", got, seg.r.Committed))
		}
	}
	return seg, nil
}

func runOLTP(cfg runConfig, shape oltpShape) (*Result, error) {
	setups := shape.setups
	if cfg.trace {
		setups = 1 // the traced run reports no setup_s
	}
	plans, setupSecs, err := setupEach(setups, func(int) (oltpPlan, error) {
		p, err := planOLTP(shape, cfg.seed)
		if err != nil {
			return p, err
		}
		// Set-up includes deploying the plan once.
		d, err := deploy(shape, p, false)
		if err != nil {
			return p, err
		}
		d.c.Close()
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	p := plans[len(plans)-1] // every set-up plans the same seed

	res := &Result{Correct: true, Metrics: Metrics{}}
	var plain, traced []segment
	start := time.Now()
	// Traced runs alternate uninstrumented and instrumented segments, so
	// the overhead compares like with like.
	for i := 0; i < 2 || time.Since(start) < cfg.measure; i++ {
		instrumented := cfg.trace && i%2 == 1
		seg, err := runSegment(shape, p, cfg.seed+int64(i)*7919, instrumented)
		if err != nil {
			return nil, err
		}
		// Each check is an attempted operation: the workload's check, and
		// on an instrumented segment the obs counter check.
		checks := int64(1)
		if instrumented {
			checks++
		}
		res.Attempted += seg.r.Committed + seg.r.Failed + checks
		res.Failed += seg.r.Failed + int64(len(seg.errs))
		if seg.r.Failed > 0 {
			cfg.logf("segment %d: %d transactions failed", i, seg.r.Failed)
		}
		for _, e := range seg.errs {
			cfg.logf("segment %d: %v", i, e)
		}
		if len(seg.latMS) == 0 {
			return nil, fmt.Errorf("segment %d: no transaction completed", i)
		}
		cfg.logf("segment %d (instrumented=%v): %.0f txn/s, p50 %.3f ms, %.1f%% distributed",
			i, instrumented, seg.opsPerS, median(seg.latMS), 100*seg.r.DistributedFrac())
		if instrumented {
			traced = append(traced, seg)
		} else {
			plain = append(plain, seg)
		}
	}
	res.Correct = res.Failed == 0

	if !cfg.trace {
		var lat, rate, peak []float64
		var committed, distributed int64
		for _, s := range plain {
			lat = append(lat, s.latMS...)
			rate = append(rate, s.opsPerS)
			peak = append(peak, s.peakMB)
			committed += s.r.Committed
			distributed += s.r.Distributed
		}
		m := res.Metrics
		m.set("setup_s", setupSecs, "s")
		m.set("peak_rss_mb", median(peak), "MB")
		m.set("dist_pct", 100*float64(distributed)/float64(committed), "%")
		m.set("routing_kb", float64(p.strat.MemoryBytes())/1024, "KB")
		m.set("p50_ms", median(lat), "ms")
		m.set("ops_per_s", median(rate), "1/s")
		return res, nil
	}
	setOLTPLayers(res.Metrics, plain, traced)
	return res, nil
}

// setOLTPLayers derives the per-layer metrics from the instrumented
// segments: counters summed over segments, histogram percentiles as the
// median over segments (each segment has its own registry, and obs
// histograms include the warmup's samples).
func setOLTPLayers(m Metrics, plain, traced []segment) {
	var committed, failed, aborts int64
	var lat, imbalance, plainRate, tracedRate []float64
	counters := map[string]int64{}
	var calls, nanos int64
	stmt := &obs.Hist{}
	var rt runtimeDelta
	for _, s := range traced {
		committed += s.r.Committed
		failed += s.r.Failed
		aborts += s.r.Aborts
		lat = append(lat, s.latMS...)
		imbalance = append(imbalance, s.r.Imbalance())
		tracedRate = append(tracedRate, s.opsPerS)
		for name, v := range s.after.Counters {
			counters[name] += v - s.before.Counters[name]
		}
		calls += s.route.calls.Load()
		nanos += s.route.nanos.Load()
		stmt.Add(s.r.StmtLatency)
		rt.merge(s.rt)
	}
	for _, s := range plain {
		plainRate = append(plainRate, s.opsPerS)
	}
	histUS := func(metric, name string) {
		var p50, p99 []float64
		for _, s := range traced {
			if h, ok := s.after.Hists[name]; ok {
				p50 = append(p50, float64(h.P50)/1e3)
				p99 = append(p99, float64(h.P99)/1e3)
			}
		}
		if len(p50) > 0 {
			m.set(metric+"_us_p50", median(p50), "us")
			m.set(metric+"_us_p99", median(p99), "us")
		}
	}
	histUS("2pc.route", "2pc.route")
	histUS("2pc.prepare", "2pc.prepare")
	histUS("2pc.commit", "2pc.commit")
	histUS("wal.force", "wal.force")
	histUS("repl.append_quorum", "repl.append.quorum")
	histUS("repl.commit_apply", "repl.commit.apply")
	m.set("repl.lease_refused", float64(counters["repl.lease_refused"]), "count")
	if one, two := counters["txn.commit.one_phase"], counters["txn.commit.two_phase"]; one+two > 0 {
		m.set("txn.two_phase_pct", 100*float64(two)/float64(one+two), "%")
	}
	if attempts := committed + aborts + failed; attempts > 0 {
		m.set("txn.abort_pct", 100*float64(aborts)/float64(attempts), "%")
	}
	rt.set(m, committed)
	if committed > 0 {
		m.set("txn.backoff_ms_per_ktxn", float64(counters["txn.backoff_ns"])/1e6/(float64(committed)/1000), "ms")
	}
	for _, cause := range cluster.RetryCauses {
		m.set("txn.retry."+cause, float64(counters["txn.retry."+cause]), "count")
	}
	if calls > 0 {
		m.set("route.locate_ns", float64(nanos)/float64(calls), "ns")
		m.set("route.locates_per_txn", float64(calls)/float64(committed+failed+aborts), "count")
	}
	m.set("driver.stmt_p50_us", float64(stmt.Quantile(0.5))/1e3, "us")
	m.set("driver.stmt_p99_us", float64(stmt.Quantile(0.99))/1e3, "us")
	m.set("cluster.imbalance", median(imbalance), "ratio")
	m.set("op.mean_ms", mean(lat), "ms")
	if v, ok := tail(lat, 0.99); ok {
		m.set("op.tail_ms", v, "ms")
	}
	if base := median(plainRate); base > 0 {
		m.set("obs.overhead_pct", 100*(base-median(tracedRate))/base, "%")
	}
}

// timedStrategy wraps the routing strategy handed to the coordinator and
// times every call the router makes into it.
type timedStrategy struct {
	partition.Strategy
	calls atomic.Int64
	nanos atomic.Int64
}

func (t *timedStrategy) Locate(id workload.TupleID, row partition.Row) []int {
	start := time.Now()
	parts := t.Strategy.Locate(id, row)
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return parts
}

func (t *timedStrategy) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) partition.Route {
	start := time.Now()
	r := t.Strategy.RouteStmt(table, cons, routable)
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return r
}

// money sums the columns every payment adds 100.00 to.
type money struct{ wYtd, dYtd, cYtd float64 }

// readMoney reads every warehouse, district and customer row through the
// coordinator, one read-only transaction per table.
func readMoney(co *cluster.Coordinator, cfg workloads.TPCCConfig) (money, error) {
	var m money
	sum := func(sqls []string, col int, into *float64) error {
		_, _, err := co.RunTxn(func(t *cluster.Txn) error {
			var total float64
			for _, q := range sqls {
				rows, err := t.Exec(q)
				if err != nil {
					return err
				}
				if len(rows) != 1 {
					return fmt.Errorf("%q returned %d rows", q, len(rows))
				}
				total += rows[0][col].F
			}
			*into = total
			return nil
		})
		return err
	}
	var wq, dq, cq []string
	for w := 1; w <= cfg.Warehouses; w++ {
		wq = append(wq, fmt.Sprintf("SELECT * FROM warehouse WHERE w_id = %d", w))
		for d := 1; d <= cfg.Districts; d++ {
			dkey := (w-1)*cfg.Districts + (d - 1)
			dq = append(dq, fmt.Sprintf("SELECT * FROM district WHERE d_key = %d", dkey))
			for c := 1; c <= cfg.Customers; c++ {
				cq = append(cq, fmt.Sprintf("SELECT * FROM customer WHERE c_key = %d", dkey*cfg.Customers+(c-1)))
			}
		}
	}
	if err := sum(wq, 2, &m.wYtd); err != nil {
		return m, fmt.Errorf("read warehouses: %w", err)
	}
	if err := sum(dq, 4, &m.dYtd); err != nil {
		return m, fmt.Errorf("read districts: %w", err)
	}
	if err := sum(cq, 5, &m.cYtd); err != nil {
		return m, fmt.Errorf("read customers: %w", err)
	}
	return m, nil
}

// checkMoney verifies payment conservation: every committed payment
// added the same amount to w_ytd, d_ytd and c_ytd_payment, and some did.
func checkMoney(before, after money) error {
	dw, dd, dc := after.wYtd-before.wYtd, after.dYtd-before.dYtd, after.cYtd-before.cYtd
	if dw <= 0 || math.Abs(dw-dd) > 1e-6 || math.Abs(dw-dc) > 1e-6 {
		return fmt.Errorf("payment money not conserved: Δw_ytd=%.2f Δd_ytd=%.2f Δc_ytd_payment=%.2f", dw, dd, dc)
	}
	return nil
}
