package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// adapt-tpcc: live repartitioning cycles on TPC-C whose 30% hot
// warehouse rotates. A round deploys a full cut of a pre-rotation window,
// then streams the rotating trace into the capture window one chunk per
// cycle. A cycle is Window.Snapshot, ScoreWindow + Detector.Drift,
// Repartitioner.RepartitionDrift (hypergraph, warm start, the default
// drift gate and full-cut period) and BuildPlanSets; the fresh placement
// is then deployed over the previous one. Rounds restart from their
// set-up state, so a cycle's work does not depend on how long the run is.

type adaptShape struct {
	tpcc    workloads.TPCCConfig // Seed and PickWarehouse are set per round
	k       int
	window  int // capture window capacity, in transactions
	chunk   int // transactions recorded between cycles
	cycles  int // cycles per round
	rotate  int // transactions between hot-warehouse rotations
	hotFrac float64
	// pool is the number of distinct rounds; a run completes each at
	// least once, so the deterministic counts are over the whole pool.
	pool int
}

var adaptDefault = adaptShape{
	tpcc:    workloads.TPCCConfig{Warehouses: 8, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10},
	k:       4,
	window:  4000,
	chunk:   250,
	cycles:  32,
	rotate:  2000,
	hotFrac: 0.3,
	pool:    4,
}

var (
	adaptGraph    = graph.Options{Coalesce: true, Replication: true, Seed: 7}
	adaptMetis    = metis.Options{Seed: 7}
	adaptDetector = live.DetectorConfig{MinWindow: 800, DistributedFloor: 0.05, DegradeFactor: 2.5, ImbalanceTrigger: 1.5}
)

// adaptRound is one round's inputs: the database, the pre-rotation
// window and its deployed full cut, and the rotating stream.
type adaptRound struct {
	db       *storage.Database
	keyCols  map[string]string
	initial  *workload.Trace
	stream   *workload.Trace
	deployed map[workload.TupleID][]int
}

// rotatingPicker sends hotFrac of transactions to a hot warehouse that
// advances every `every` draws.
func rotatingPicker(every int, hotFrac float64) func(rng *rand.Rand, warehouses int) int {
	draws := 0
	return func(rng *rand.Rand, warehouses int) int {
		hot := 1 + (draws/every)%warehouses
		draws++
		if rng.Float64() < hotFrac {
			return hot
		}
		return 1 + rng.Intn(warehouses)
	}
}

func newAdaptRound(shape adaptShape, seed int64) (*adaptRound, error) {
	pre := shape.tpcc
	pre.Txns, pre.Seed = shape.window, seed
	pre.PickWarehouse = workloads.HotWarehousePicker(1, shape.hotFrac)
	before := workloads.TPCC(pre)

	// The generator drops transactions that touch nothing (a delivery
	// with no new order pending), so draw a margin beyond what the cycles
	// consume.
	need := shape.chunk * shape.cycles
	rot := shape.tpcc
	rot.Txns, rot.Seed = need+need/10, seed+1
	rot.PickWarehouse = rotatingPicker(shape.rotate, shape.hotFrac)
	stream := workloads.TPCC(rot).Trace
	if len(stream.Txns) < need {
		return nil, fmt.Errorf("rotating trace has %d transactions, cycles need %d", len(stream.Txns), need)
	}

	rep, err := live.NewRepartitioner(adaptConfig(shape, false))
	if err != nil {
		return nil, err
	}
	initial, err := rep.Repartition(before.Trace, nil)
	if err != nil {
		return nil, err
	}
	deployed := make(map[workload.TupleID][]int, len(initial.Tuples))
	for i, id := range initial.Tuples {
		deployed[id] = initial.Assignments[i]
	}
	return &adaptRound{db: before.DB, keyCols: before.KeyColumns, initial: before.Trace, stream: stream, deployed: deployed}, nil
}

func adaptConfig(shape adaptShape, warm bool) live.RepartitionConfig {
	return live.RepartitionConfig{K: shape.k, Graph: adaptGraph, Metis: adaptMetis, Hyper: true, WarmStart: warm}
}

// locateIn resolves a tuple through a deployed placement map: tuples the
// database does not hold were born after deployment and float (nil);
// tuples the map never placed hash.
func locateIn(db *storage.Database, deployed map[workload.TupleID][]int, k int) live.LocateFunc {
	return func(id workload.TupleID) []int {
		tbl := db.Table(id.Table)
		if tbl == nil {
			return nil
		}
		if _, ok := tbl.Get(id.Key); !ok {
			return nil
		}
		if parts, ok := deployed[id]; ok {
			return parts
		}
		return []int{partition.HashPart(id.Key, k)}
	}
}

// adaptCycle is one cycle's timings and outcome.
type adaptCycle struct {
	total, snapshot, score, plan time.Duration
	graph, cut, relabel          time.Duration
	mode                         live.CycleMode
	moved, naiveMoved            int
	distPct                      float64
}

// adaptRoundResult is one round's cycles plus its end-of-round figures.
type adaptRoundResult struct {
	cycles    []adaptCycle
	routingKB float64
	gapPP     float64 // adapted minus from-scratch %distributed, final window
	checkErr  error
}

// runAdaptRound plays one round. It stops early when deadline passes; a
// zero deadline never stops early. withGap adds the from-scratch
// comparison at the end of a complete round.
func runAdaptRound(shape adaptShape, r *adaptRound, deadline time.Time, withGap bool) (res adaptRoundResult, err error) {
	rep, err := live.NewRepartitioner(adaptConfig(shape, true))
	if err != nil {
		return res, err
	}
	deployed := make(map[workload.TupleID][]int, len(r.deployed))
	for id, parts := range r.deployed {
		deployed[id] = parts
	}
	locate := locateIn(r.db, deployed, shape.k)
	win := live.NewWindow(live.WindowConfig{Capacity: shape.window})
	for _, tx := range r.initial.Txns {
		win.Record(tx.Accesses)
	}
	det := live.NewDetector(adaptDetector)
	det.SetBaseline(live.ScoreWindow(r.initial, shape.k, locate))

	var snap *workload.Trace
	for c := 0; c < shape.cycles; c++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return res, nil
		}
		for _, tx := range r.stream.Txns[c*shape.chunk : (c+1)*shape.chunk] {
			win.Record(tx.Accesses)
		}
		t0 := time.Now()
		snap = win.Snapshot()
		t1 := time.Now()
		drift := det.Drift(live.ScoreWindow(snap, shape.k, locate))
		t2 := time.Now()
		rp, err := rep.RepartitionDrift(snap, locate, drift)
		if err != nil {
			return res, err
		}
		t3 := time.Now()
		plan := live.BuildPlanSets(rp.Tuples, rp.Deployed, rp.Assignments)
		t4 := time.Now()

		if res.checkErr == nil {
			res.checkErr = checkPlanCoversDiff(c, plan, rp)
		}
		for i, id := range rp.Tuples {
			deployed[id] = rp.Assignments[i]
		}
		after := live.ScoreWindow(snap, shape.k, locate)
		// As the live controller does: only a full cut resets the
		// baseline, so drift accumulated over warm cycles can escalate.
		if rp.Mode == live.ModeFull {
			det.SetBaseline(after)
		}
		res.cycles = append(res.cycles, adaptCycle{
			total: t4.Sub(t0), snapshot: t1.Sub(t0), score: t2.Sub(t1), plan: t4.Sub(t3),
			graph: rp.PhaseGraph, cut: rp.PhaseCut, relabel: rp.PhaseRelabel,
			mode: rp.Mode, moved: rp.Diff.Moved, naiveMoved: rp.NaiveDiff.Moved,
			distPct: 100 * after.Distributed,
		})
	}
	lk, _ := live.DeployLookup(r.db, shape.k, r.keyCols, locate)
	res.routingKB = float64(lk.MemoryBytes()) / 1024
	if withGap {
		off, err := live.NewRepartitioner(adaptConfig(shape, false))
		if err != nil {
			return res, err
		}
		scratch, err := off.Repartition(snap, nil)
		if err != nil {
			return res, err
		}
		scratchMap := make(map[workload.TupleID][]int, len(scratch.Tuples))
		for i, id := range scratch.Tuples {
			scratchMap[id] = scratch.Assignments[i]
		}
		adapted := live.ScoreWindow(snap, shape.k, locate).Distributed
		fresh := live.ScoreWindow(snap, shape.k, locateIn(r.db, scratchMap, shape.k)).Distributed
		res.gapPP = 100 * (adapted - fresh)
	}
	return res, nil
}

// checkPlanCoversDiff verifies that a cycle's migration plan moves
// exactly the tuples its movement diff counts, with the same replica
// copies and drops.
func checkPlanCoversDiff(cycle int, plan live.Plan, rp *live.Repartition) error {
	if len(plan.Moves) != rp.Diff.Moved || plan.Copies != rp.Diff.Copies || plan.Drops != rp.Diff.Drops {
		return fmt.Errorf("cycle %d: plan has %d moves/%d copies/%d drops, diff %d/%d/%d",
			cycle, len(plan.Moves), plan.Copies, plan.Drops, rp.Diff.Moved, rp.Diff.Copies, rp.Diff.Drops)
	}
	return nil
}

// adaptCounts are the deterministic counts of a pass over the pool.
type adaptCounts struct {
	distPct, movedPerCycle, naiveMoved, routingKB float64
	full, warm                                    int
}

func countAdapt(rounds []adaptRoundResult) adaptCounts {
	var c adaptCounts
	var dist, moved, naive, kb []float64
	for _, r := range rounds {
		for _, cy := range r.cycles {
			dist = append(dist, cy.distPct)
			moved = append(moved, float64(cy.moved))
			naive = append(naive, float64(cy.naiveMoved))
			if cy.mode == live.ModeFull {
				c.full++
			} else {
				c.warm++
			}
		}
		kb = append(kb, r.routingKB)
	}
	c.distPct, c.movedPerCycle, c.naiveMoved, c.routingKB = mean(dist), mean(moved), mean(naive), mean(kb)
	return c
}

func runAdapt(cfg runConfig) (*Result, error) {
	return runAdaptShape(cfg, adaptDefault)
}

func runAdaptShape(cfg runConfig, shape adaptShape) (*Result, error) {
	pool, setupSecs, err := setupEach(shape.pool, func(i int) (*adaptRound, error) {
		return newAdaptRound(shape, derivedSeed(cfg.seed, i))
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Correct: true, Metrics: Metrics{}}
	start := time.Now()
	var rounds []adaptRoundResult
	var peaks []float64
	var rt runtimeDelta
	for i := 0; ; i++ {
		// The first pass over the pool always completes; after it, a round
		// stops where the measurement time ends.
		var deadline time.Time
		if i >= len(pool) {
			if time.Since(start) >= cfg.measure {
				break
			}
			deadline = start.Add(cfg.measure)
		}
		// Each round starts from a collected heap, so one round's garbage
		// does not tax the next.
		runtime.GC()
		rss := startRSS()
		rt.begin()
		rr, err := runAdaptRound(shape, pool[i%len(pool)], deadline, cfg.trace && i < len(pool))
		rt.end()
		peaks = append(peaks, rss.stopMB())
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(len(rr.cycles))
		var roundMS []float64
		for _, c := range rr.cycles {
			roundMS = append(roundMS, ms(c.total))
		}
		cfg.logf("round %d: %d cycles, median %.1f ms, peak %.0f MB", i, len(rr.cycles), median(roundMS), peaks[len(peaks)-1])
		if rr.checkErr != nil {
			cfg.logf("adapt round %d: %v", i, rr.checkErr)
			res.Failed++
			res.Correct = false
		}
		rounds = append(rounds, rr)
	}

	var all []adaptCycle
	for _, r := range rounds {
		all = append(all, r.cycles...)
	}
	var cycleMS []float64
	var total time.Duration
	for _, c := range all {
		cycleMS = append(cycleMS, ms(c.total))
		total += c.total
	}
	counts := countAdapt(rounds[:len(pool)])

	m := res.Metrics
	if !cfg.trace {
		m.set("setup_s", setupSecs, "s")
		m.set("peak_rss_mb", median(peaks), "MB")
		m.set("dist_pct", counts.distPct, "%")
		m.set("routing_kb", counts.routingKB, "KB")
		m.set("p50_ms", median(cycleMS), "ms")
		m.set("ops_per_s", float64(len(all))/total.Seconds(), "1/s")
		return res, nil
	}

	var snapMS, scoreMS, graphMS, cutMS, relabelMS, planMS, untimedMS []float64
	for _, c := range all {
		snapMS = append(snapMS, ms(c.snapshot))
		scoreMS = append(scoreMS, ms(c.score))
		graphMS = append(graphMS, ms(c.graph))
		cutMS = append(cutMS, ms(c.cut))
		relabelMS = append(relabelMS, ms(c.relabel))
		planMS = append(planMS, ms(c.plan))
		untimedMS = append(untimedMS, ms(c.total-c.snapshot-c.score-c.graph-c.cut-c.relabel-c.plan))
	}
	var gaps []float64
	for _, r := range rounds[:len(pool)] {
		gaps = append(gaps, r.gapPP)
	}
	m.set("live.snapshot_ms", mean(snapMS), "ms")
	m.set("live.score_ms", mean(scoreMS), "ms")
	m.set("live.graph_ms", mean(graphMS), "ms")
	m.set("live.cut_ms", mean(cutMS), "ms")
	m.set("live.relabel_ms", mean(relabelMS), "ms")
	m.set("live.plan_ms", mean(planMS), "ms")
	m.set("live.untimed_ms", mean(untimedMS), "ms")
	m.set("op.mean_ms", mean(cycleMS), "ms")
	if v, ok := tail(cycleMS, 0.9); ok {
		m.set("op.tail_ms", v, "ms")
	}
	m.set("live.full_cycles", float64(counts.full), "count")
	m.set("live.warm_cycles", float64(counts.warm), "count")
	m.set("live.moved_per_cycle", counts.movedPerCycle, "count")
	m.set("live.naive_moved", counts.naiveMoved, "count")
	m.set("live.offline_gap_pp", mean(gaps), "pp")
	rt.set(m, int64(len(all)))
	res.Attempted++ // the residual check
	if err := checkResidual(untimedMS); err != nil {
		cfg.logf("adapt phases: %v", err)
		res.Failed++
		res.Correct = false
	}
	return res, nil
}
