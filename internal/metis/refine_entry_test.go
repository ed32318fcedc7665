package metis

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomLabels draws a deterministic random k-way assignment.
func randomLabels(n, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = int32(rng.Intn(k))
	}
	return parts
}

// TestRefineHKwayPreservesGoodStart pins the steady-state contract: the
// full partitioner's own output is a fixed point whose cost warm
// refinement never worsens.
func TestRefineHKwayPreservesGoodStart(t *testing.T) {
	h := clusterHyper(4, 15, 3)
	parts, cold, err := PartHKway(h, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]int32(nil), parts...)
	cost, err := NewSolver().RefineHKway(h, 4, warm, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cost > cold {
		t.Fatalf("refining the full cut worsened it: %d -> %d", cold, cost)
	}
}

// checkBalance asserts no partition exceeds the cap RefineHKway enforces.
func checkBalance(t *testing.T, h *HGraph, parts []int32, k int, opts Options) {
	t.Helper()
	opts = opts.withDefaults(k)
	total := h.TotalNodeWeight()
	maxPW := int64(float64(total) / float64(k) * opts.Imbalance)
	if ceil := (total + int64(k) - 1) / int64(k); maxPW < ceil {
		maxPW = ceil
	}
	pw := make([]int64, k)
	for u, p := range parts {
		pw[p] += h.NodeWeight(int32(u))
	}
	for p, w := range pw {
		if w > maxPW {
			t.Fatalf("partition %d weight %d exceeds cap %d", p, w, maxPW)
		}
	}
}

// TestRefineHKwayRejectsBadInput covers the typed precondition failures.
func TestRefineHKwayRejectsBadInput(t *testing.T) {
	h := clusterHyper(2, 8, 1)
	n := h.NumNodes()
	if _, err := NewSolver().RefineHKway(h, 0, make([]int32, n), Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewSolver().RefineHKway(h, 2, make([]int32, n-1), Options{}); err == nil {
		t.Error("short label slice accepted")
	}
	bad := make([]int32, n)
	bad[3] = 2
	if _, err := NewSolver().RefineHKway(h, 2, bad, Options{}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

// stripedLabels assigns node i to part i % k: perfectly balanced but
// maximally cut, so refinement (not rebalance) does all the work.
func stripedLabels(n, k int) []int32 {
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = int32(i % k)
	}
	return parts
}

// TestRefineHKwayImprovesStripedStart checks the warm-start entry point
// on the connectivity metric: refining a maximally cut start must respect
// the balance caps, report the true cost, and strictly beat the start.
// The start is balanced (striped) rather than random: greedy λ−1 refinement takes only non-worsening moves, so from
// a balanced start the cost is monotone, but an imbalanced random start
// can be pushed uphill by the mandatory rebalance with no FM pass to
// climb back down (the k=2 plain-graph path has fmRefine2 for exactly
// that; the connectivity path does not).
func TestRefineHKwayImprovesStripedStart(t *testing.T) {
	for _, k := range []int{2, 4} {
		// Clusters large enough that the 5% imbalance cap leaves slack
		// for individual moves (tiny graphs truncate the slack to zero,
		// freezing a perfectly balanced start).
		h := clusterHyper(k, 48, 3)
		n := h.NumNodes()
		parts := stripedLabels(n, k)
		startCost := h.ConnectivityCost(parts, k)
		cost, err := NewSolver().RefineHKway(h, k, parts, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ConnectivityCost(parts, k); got != cost {
			t.Fatalf("k=%d: reported cost %d != recomputed %d", k, cost, got)
		}
		if cost >= startCost {
			t.Fatalf("k=%d: refinement did not improve: %d -> %d", k, startCost, cost)
		}
		checkBalance(t, h, parts, k, Options{Seed: 7})
	}
}

// TestRefineHKwayDeterministicAndReusable pins the warm-start determinism
// contract: equal (h, k, parts, opts) give byte-identical refined labels
// whether the Solver is fresh, reused, or the pooled package-level form.
func TestRefineHKwayDeterministicAndReusable(t *testing.T) {
	h := clusterHyper(3, 14, 5)
	initial := randomLabels(h.NumNodes(), 3, 8)
	opts := Options{Seed: 13}

	a := append([]int32(nil), initial...)
	costA, err := NewSolver().RefineHKway(h, 3, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	if _, _, err := s.PartHKway(clusterHyper(4, 10, 9), 4, Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	b := append([]int32(nil), initial...)
	costB, err := s.RefineHKway(h, 3, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := append([]int32(nil), initial...)
	costC, err := RefineHKway(h, 3, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if costA != costB || costA != costC {
		t.Fatalf("costs differ across solver states: %d, %d, %d", costA, costB, costC)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatal("refined labels differ across solver states")
	}
}
