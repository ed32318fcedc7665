package live

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestWarmRepartitionDeterministic pins the warm-start counterpart of the
// cycle-seed contract: with a fixed seed, a full cut followed by warm
// refine-only cycles chained through the deployed placement produces
// byte-identical placements on every run, at any GOMAXPROCS.
func TestWarmRepartitionDeterministic(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	cfg := RepartitionConfig{
		K:     4,
		Graph: graph.Options{Coalesce: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
		Hyper: true,
		// Force every post-deployment cycle down the warm path (drift 1
		// stays below the escape threshold).
		WarmStart: true, FullCutEveryN: -1,
	}

	const cycles = 3
	run := func() []*Repartition {
		rep := mustRep(t, cfg)
		var locate LocateFunc
		var out []*Repartition
		for c := 0; c < cycles; c++ {
			res, err := rep.RepartitionDrift(w.Trace, locate, 1)
			if err != nil {
				t.Fatal(err)
			}
			locate = res.LocateFunc()
			out = append(out, res)
		}
		return out
	}

	prev := runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := run()
	runtime.GOMAXPROCS(prev)

	for c := 0; c < cycles; c++ {
		wantMode := ModeWarm
		if c == 0 {
			wantMode = ModeFull // no deployed placement to project yet
		}
		if a[c].Mode != wantMode || b[c].Mode != wantMode {
			t.Fatalf("cycle %d: modes %s/%s, want %s", c, a[c].Mode, b[c].Mode, wantMode)
		}
		if a[c].EdgeCut != b[c].EdgeCut {
			t.Fatalf("cycle %d: cuts %d vs %d across GOMAXPROCS", c, a[c].EdgeCut, b[c].EdgeCut)
		}
		if !reflect.DeepEqual(a[c].Assignments, b[c].Assignments) {
			t.Fatalf("cycle %d: assignments differ across GOMAXPROCS", c)
		}
		if !reflect.DeepEqual(a[c].Perm, b[c].Perm) {
			t.Fatalf("cycle %d: perms differ across GOMAXPROCS", c)
		}
	}
}

// TestDriftEscapeFullCut checks the policy's escape hatch end to end: a
// hotspot shift whose drift measurement clears driftCutThreshold abandons
// the warm path for a full cut whose quality matches a from-scratch
// partitioning of the shifted window, and the escape resets the periodic
// backstop so the next quiet cycle is warm again.
func TestDriftEscapeFullCut(t *testing.T) {
	cfgA := workloads.YCSBGroupsConfig{Rows: 1600, GroupSize: 4, Txns: 2000, Phase: 0, Seed: 1}
	cfgB := cfgA
	cfgB.Phase, cfgB.Seed = 1, 2
	phaseA := workloads.YCSBGroups(cfgA)
	phaseB := workloads.YCSBGroups(cfgB)

	const k = 4
	cfg := RepartitionConfig{
		K:     k,
		Graph: graph.Options{Coalesce: true, Seed: 7},
		Metis: metis.Options{Seed: 7},
		Hyper: true,
		// Defaults: FullCutEveryN 16; the drift escape is fixed at 3.
		WarmStart: true,
	}
	rep := mustRep(t, cfg)

	initial, err := rep.Repartition(phaseA.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if initial.Mode != ModeFull {
		t.Fatalf("initial cycle mode %s, want %s (nothing to project)", initial.Mode, ModeFull)
	}

	steady, err := rep.RepartitionDrift(phaseA.Trace, locateOf(initial, k), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Mode != ModeWarm {
		t.Fatalf("steady cycle mode %s, want %s under low drift", steady.Mode, ModeWarm)
	}

	esc, err := rep.RepartitionDrift(phaseB.Trace, locateOf(steady, k), 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if esc.Mode != ModeFull {
		t.Fatalf("shifted cycle mode %s, want %s above driftCutThreshold", esc.Mode, ModeFull)
	}

	scratch, err := mustRep(t, RepartitionConfig{
		K: k, Graph: cfg.Graph, Metis: cfg.Metis, Hyper: true,
	}).Repartition(phaseB.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	escDist := ScoreWindow(phaseB.Trace, k, locateOf(esc, k)).Distributed
	scratchDist := ScoreWindow(phaseB.Trace, k, locateOf(scratch, k)).Distributed
	if escDist > scratchDist+0.02 {
		t.Fatalf("escape cut %%distributed %.3f, from-scratch %.3f: escape did not converge",
			escDist, scratchDist)
	}

	// The full cut reset sinceFull, so a quiet follow-up cycle is warm and
	// stays within tolerance of the from-scratch quality.
	post, err := rep.RepartitionDrift(phaseB.Trace, locateOf(esc, k), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if post.Mode != ModeWarm {
		t.Fatalf("post-escape cycle mode %s, want %s (backstop counter reset)", post.Mode, ModeWarm)
	}
	if postDist := ScoreWindow(phaseB.Trace, k, locateOf(post, k)).Distributed; postDist > scratchDist+0.05 {
		t.Fatalf("post-escape warm cycle %%distributed %.3f, from-scratch %.3f", postDist, scratchDist)
	}
}

// TestRepartitionDiffSinglePass pins the single-pass diff against the old
// two-pass semantics: with a deployed placement that is a pure rotation of
// the fresh cut, the relabeler finds a non-identity permutation, Diff
// equals a recomputed AssignmentDiff over the relabeled sets, and
// NaiveDiff equals the diff over the pre-relabel sets (reconstructed via
// the inverse permutation) — exactly what the second DenseAssignments
// pass used to produce.
func TestRepartitionDiffSinglePass(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	const k = 4
	cfg := RepartitionConfig{
		K:     k,
		Graph: graph.Options{Coalesce: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
	}
	rep := mustRep(t, cfg)
	initial, err := rep.Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Deploy a rotation of the initial cut: every label p becomes (p+1)%k.
	deployed := make(map[workload.TupleID][]int, len(initial.Tuples))
	for i, id := range initial.Tuples {
		set := make([]int, len(initial.Assignments[i]))
		for j, p := range initial.Assignments[i] {
			set[j] = (p + 1) % k
		}
		sort.Ints(set)
		deployed[id] = set
	}
	locate := func(id workload.TupleID) []int { return deployed[id] }

	res, err := rep.Repartition(w.Trace, locate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Perm[0] == 0 && res.Perm[1] == 1 && res.Perm[2] == 2 && res.Perm[3] == 3 {
		t.Fatal("rotated deployment produced the identity permutation; fixture is broken")
	}

	oldSets := make([][]int, len(res.Tuples))
	for d, id := range res.Tuples {
		oldSets[d] = locate(id)
	}
	if got := partition.AssignmentDiff(oldSets, res.Assignments, k); !reflect.DeepEqual(got, res.Diff) {
		t.Fatalf("Diff = %+v, recomputed over relabeled assignments %+v", res.Diff, got)
	}

	// Undo the relabel (Perm maps pre-label l to post-label Perm[l]) to
	// recover the raw partitioner output the old first pass diffed.
	inv := make([]int, k)
	for l, p := range res.Perm {
		inv[p] = l
	}
	naive := make([][]int, len(res.Assignments))
	for i, set := range res.Assignments {
		naive[i] = make([]int, len(set))
		for j, p := range set {
			naive[i][j] = inv[p]
		}
		sort.Ints(naive[i])
	}
	if got := partition.AssignmentDiff(oldSets, naive, k); !reflect.DeepEqual(got, res.NaiveDiff) {
		t.Fatalf("NaiveDiff = %+v, recomputed over pre-relabel assignments %+v", res.NaiveDiff, got)
	}
	if res.NaiveDiff.Moved <= res.Diff.Moved {
		t.Fatalf("relabeling saved nothing on a rotated deployment: naive %d <= relabeled %d",
			res.NaiveDiff.Moved, res.Diff.Moved)
	}

	// A deployment equal to the fresh cut relabels to the identity and
	// takes the shortcut: one diff, two names, nothing moved.
	same, err := mustRep(t, cfg).Repartition(w.Trace, initial.LocateFunc())
	if err != nil {
		t.Fatal(err)
	}
	if !isIdentityPerm(same.Perm) {
		t.Fatalf("redeploying the same cut relabeled with %v, want the identity", same.Perm)
	}
	if !reflect.DeepEqual(same.Diff, same.NaiveDiff) || same.Diff.Moved != 0 {
		t.Fatalf("identity relabel: Diff %+v, NaiveDiff %+v", same.Diff, same.NaiveDiff)
	}
}

// TestLocateFuncMemoized pins the placement-map memoization: after the
// first call builds the map, further LocateFunc calls are allocation-flat
// (a closure, never a rebuilt map over every windowed tuple).
func TestLocateFuncMemoized(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	res, err := mustRep(t, RepartitionConfig{
		K:     4,
		Graph: graph.Options{Coalesce: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
	}).Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}

	id := res.Tuples[0]
	if res.LocateFunc()(id) == nil {
		t.Fatalf("LocateFunc does not cover windowed tuple %v", id)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if res.LocateFunc()(id) == nil {
			t.Fatal("placement lost between calls")
		}
	}); allocs > 2 {
		t.Fatalf("LocateFunc allocates %.0f objects per call; the placement map is being rebuilt", allocs)
	}
}

// TestRepartitionConfigRejectsBadK covers the typed validation on both
// constructors: a non-positive partition count, or warm start without the
// hypergraph, fails at wiring time with a *ConfigError naming the field.
func TestRepartitionConfigRejectsBadK(t *testing.T) {
	for _, k := range []int{0, -4} {
		_, err := NewRepartitioner(RepartitionConfig{K: k})
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "K" {
			t.Fatalf("NewRepartitioner(K=%d) error = %v, want *ConfigError on K", k, err)
		}
		ce = nil
		_, err = NewController(Config{K: k}, nil, nil)
		if !errors.As(err, &ce) || ce.Field != "K" {
			t.Fatalf("NewController(K=%d) error = %v, want *ConfigError on K", k, err)
		}
	}
	// Warm-start refinement runs on the hypergraph only.
	_, err := NewRepartitioner(RepartitionConfig{K: 4, WarmStart: true})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "WarmStart" {
		t.Fatalf("NewRepartitioner(WarmStart without Hyper) error = %v, want *ConfigError on WarmStart", err)
	}
	if _, err := NewRepartitioner(RepartitionConfig{K: 4, Hyper: true, WarmStart: true}); err != nil {
		t.Fatalf("NewRepartitioner(Hyper, WarmStart) = %v, want nil", err)
	}
}

// shortOr returns full, or short under go test -short.
func shortOr(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestRelabelMinimisesMovement: a full cut under a new partitioner seed,
// relabeled against the first cut's deployment, must move far fewer
// tuples than the partitioner's raw labels would.
func TestRelabelMinimisesMovement(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Customers: 20, Items: 120, InitialOrders: 8, Txns: shortOr(3000, 1500), Seed: 9,
	})
	cfg := RepartitionConfig{K: 4, Graph: graph.Options{Replication: true, Seed: 7}, Metis: metis.Options{Seed: 7}}
	first, err := mustRep(t, cfg).Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metis.Seed = 8 // new seed: labels come out shuffled
	rerun, err := mustRep(t, cfg).Repartition(w.Trace, first.LocateFunc())
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Diff.Total == 0 {
		t.Fatal("movement diff not computed")
	}
	if rerun.Diff.Moved > rerun.NaiveDiff.Moved/2 {
		t.Fatalf("relabeling saved too little: moved %d vs naive %d", rerun.Diff.Moved, rerun.NaiveDiff.Moved)
	}
	t.Logf("moved=%d naive=%d total=%d", rerun.Diff.Moved, rerun.NaiveDiff.Moved, rerun.Diff.Total)
}

// TestWarmCycleRefinesDeployedPlacement: a warm cycle on the window the
// deployment was cut from must take the refine-only path, keep every
// tuple assigned, and barely move anything.
func TestWarmCycleRefinesDeployedPlacement(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Customers: 20, Items: 120, InitialOrders: 8, Txns: shortOr(3000, 1500), Seed: 9,
	})
	rep := mustRep(t, RepartitionConfig{
		K: 4, Graph: graph.Options{Replication: true, Seed: 7}, Metis: metis.Options{Seed: 7},
		Hyper: true, WarmStart: true,
	})
	first, err := rep.Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Mode != ModeFull {
		t.Fatalf("initial cycle mode %s, want %s", first.Mode, ModeFull)
	}
	rerun, err := rep.RepartitionDrift(w.Trace, first.LocateFunc(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Mode != ModeWarm {
		t.Fatalf("rerun mode %s, want %s", rerun.Mode, ModeWarm)
	}
	if rerun.Diff.Total == 0 {
		t.Fatal("movement diff not computed")
	}
	for i, set := range rerun.Assignments {
		if len(set) == 0 {
			t.Fatalf("tuple %v left unassigned by the warm cycle", rerun.Tuples[i])
		}
	}
	if frac := float64(rerun.Diff.Moved) / float64(rerun.Diff.Total); frac >= 0.2 {
		t.Fatalf("warm cycle moved %.0f%% of tuples; refine-only should stay near the deployment", 100*frac)
	}
	t.Logf("moved=%d naive=%d total=%d", rerun.Diff.Moved, rerun.NaiveDiff.Moved, rerun.Diff.Total)
}
