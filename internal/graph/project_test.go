package graph

import (
	"reflect"
	"testing"

	"schism/internal/workload"
)

// acct is a shorthand for the bank-example tuple ids.
func acct(id int64) workload.TupleID { return workload.TupleID{Table: "account", Key: id} }

// locateFrom turns a literal placement into a LocateFunc.
func locateFrom(m map[workload.TupleID][]int) func(workload.TupleID) []int {
	return func(id workload.TupleID) []int { return m[id] }
}

func TestProjectLabelsDeployedPlacement(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{}))
	deployed := map[workload.TupleID][]int{
		acct(1): {0}, acct(2): {0}, acct(3): {1}, acct(4): {1}, acct(5): {1},
	}
	parts := g.ProjectLabels(2, locateFrom(deployed))
	for id, want := range deployed {
		gi := g.TupleGroup()[id]
		if got := parts[g.groupBase[gi]]; int(got) != want[0] {
			t.Errorf("tuple %v projected to %d, want %d", id, got, want[0])
		}
	}
}

func TestProjectLabelsSpreadsReplicaSets(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{Replication: true}))
	id1 := acct(1)
	deployed := map[workload.TupleID][]int{
		id1: {0, 2}, acct(2): {1}, acct(3): {1}, acct(4): {1}, acct(5): {1},
	}
	parts := g.ProjectLabels(3, locateFrom(deployed))
	gi := g.TupleGroup()[id1]
	base := g.groupBase[gi]
	if parts[base] != 0 {
		t.Errorf("centre of tuple 1 projected to %d, want 0 (set[0])", parts[base])
	}
	if g.numReplicas(gi) == 0 {
		t.Fatal("tuple 1 was not exploded into replicas; fixture is broken")
	}
	// Replicas must round-robin over the deployed set {0, 2}.
	for ri := 0; ri < g.numReplicas(gi); ri++ {
		want := []int32{0, 2}[ri%2]
		if got := parts[base+1+int32(ri)]; got != want {
			t.Errorf("replica %d projected to %d, want %d", ri, got, want)
		}
	}
}

func TestProjectLabelsPluralityNeighborFallback(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{}))
	// Tuple 5 is unseen; its neighbours (via T1: {1,2,4}, via T3: {2})
	// all sit on partition 1, so it must land there.
	deployed := map[workload.TupleID][]int{
		acct(1): {1}, acct(2): {1}, acct(3): {0}, acct(4): {1},
	}
	parts := g.ProjectLabels(2, locateFrom(deployed))
	gi := g.TupleGroup()[acct(5)]
	if got := parts[g.groupBase[gi]]; got != 1 {
		t.Errorf("unseen tuple 5 projected to %d, want plurality neighbour part 1", got)
	}
}

func TestProjectLabelsIgnoresOutOfRangeAndEmpty(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{}))
	// The deployed placement was computed for k=4; projecting onto k=2
	// must treat labels >= 2 as unseen rather than crash or clamp.
	deployed := map[workload.TupleID][]int{
		acct(1): {3}, acct(2): {3}, acct(3): {3}, acct(4): {3}, acct(5): {3},
	}
	parts := g.ProjectLabels(2, locateFrom(deployed))
	if len(parts) != g.NumNodes() {
		t.Fatalf("got %d labels for %d nodes", len(parts), g.NumNodes())
	}
	for u, p := range parts {
		if p < 0 || p >= 2 {
			t.Fatalf("node %d label %d outside [0, 2)", u, p)
		}
	}
	// With no usable evidence at all, the least-loaded pass must still
	// produce a reasonably balanced assignment, not pile onto part 0.
	seen := map[int32]bool{}
	for _, p := range parts {
		seen[p] = true
	}
	if len(seen) != 2 {
		t.Errorf("least-loaded fallback used %d partitions, want 2", len(seen))
	}
}

func TestProjectLabelsNilLocate(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{}))
	parts := g.ProjectLabels(2, nil)
	for u, p := range parts {
		if p < 0 || p >= 2 {
			t.Fatalf("node %d label %d outside [0, 2)", u, p)
		}
	}
}

// TestProjectLabelsDeterministicAcrossRepresentations pins determinism:
// equal inputs give byte-identical projections on the hypergraph build,
// and pass 1 reproduces the deployed labels.
func TestProjectLabelsDeterministicAcrossRepresentations(t *testing.T) {
	deployed := map[workload.TupleID][]int{
		acct(1): {0}, acct(2): {1}, acct(4): {1},
	}
	h := mustBuild(BuildHyper(bankTrace(), Options{}))
	ha := h.ProjectLabels(2, locateFrom(deployed))
	hb := h.ProjectLabels(2, locateFrom(deployed))
	if !reflect.DeepEqual(ha, hb) {
		t.Fatal("ProjectLabels not deterministic on the hypergraph build")
	}
	for id, want := range deployed {
		hgi := h.TupleGroup()[id]
		if got := ha[h.groupBase[hgi]]; int(got) != want[0] {
			t.Errorf("tuple %v projected to %d, want %d", id, got, want[0])
		}
	}
}
