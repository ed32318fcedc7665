package partition

import (
	"reflect"
	"testing"
)

func TestAssignmentDiff(t *testing.T) {
	oldSets := [][]int{
		{0},    // unchanged
		{0},    // moves to 1
		{0, 1}, // loses replica 1
		{2},    // gains replica 0
		nil,    // unknown old: skipped
		{1},    // unknown new: skipped
	}
	newSets := [][]int{
		{0},
		{1},
		{0},
		{0, 2},
		{1},
		nil,
	}
	d := AssignmentDiff(oldSets, newSets, 3)
	if d.Total != 4 {
		t.Fatalf("Total = %d, want 4", d.Total)
	}
	if d.Moved != 3 {
		t.Fatalf("Moved = %d, want 3", d.Moved)
	}
	if d.Copies != 2 || d.Drops != 2 {
		t.Fatalf("Copies/Drops = %d/%d, want 2/2", d.Copies, d.Drops)
	}
	if want := []int{1, 1, 0}; !reflect.DeepEqual(d.PartGain, want) {
		t.Fatalf("PartGain = %v, want %v", d.PartGain, want)
	}
	if want := []int{1, 1, 0}; !reflect.DeepEqual(d.PartLoss, want) {
		t.Fatalf("PartLoss = %v, want %v", d.PartLoss, want)
	}
}

func TestRelabelMapRecoversRotation(t *testing.T) {
	// New labels are a pure rotation of the old: perm must undo it exactly.
	const k = 4
	rot := func(p int) int { return (p + 1) % k }
	var oldSets, newSets [][]int
	for d := 0; d < 400; d++ {
		p := d % k
		oldSets = append(oldSets, []int{p})
		newSets = append(newSets, []int{rot(p)})
	}
	perm := RelabelMap(oldSets, newSets, k)
	for q := 0; q < k; q++ {
		// New label q corresponds to old label with rot(old) == q.
		want := (q - 1 + k) % k
		if perm[q] != want {
			t.Fatalf("perm[%d] = %d, want %d (perm=%v)", q, perm[q], want, perm)
		}
	}
	// Applying the permutation must make the diff empty.
	relabeled := make([][]int, len(newSets))
	for i, s := range newSets {
		relabeled[i] = []int{perm[s[0]]}
	}
	if d := AssignmentDiff(oldSets, relabeled, k); d.Moved != 0 {
		t.Fatalf("after relabel Moved = %d, want 0", d.Moved)
	}
}

func TestRelabelMapReducesMoves(t *testing.T) {
	// 3 parts, new assignment is old with labels swapped plus 10% churn.
	const k = 3
	swap := []int{1, 2, 0}
	var oldSets, newSets [][]int
	for d := 0; d < 300; d++ {
		p := d % k
		oldSets = append(oldSets, []int{p})
		np := swap[p]
		if d%10 == 0 {
			np = (np + 1) % k // genuine churn
		}
		newSets = append(newSets, []int{np})
	}
	naive := AssignmentDiff(oldSets, newSets, k)
	perm := RelabelMap(oldSets, newSets, k)
	relabeled := make([][]int, len(newSets))
	for i, s := range newSets {
		relabeled[i] = []int{perm[s[0]]}
	}
	after := AssignmentDiff(oldSets, relabeled, k)
	if after.Moved >= naive.Moved {
		t.Fatalf("relabel did not reduce moves: %d -> %d", naive.Moved, after.Moved)
	}
	if after.Moved != 30 { // only the churned 10% should move
		t.Fatalf("Moved = %d, want 30", after.Moved)
	}
}

func TestRelabelMapIdentityOnEqual(t *testing.T) {
	sets := [][]int{{0}, {1}, {2}, {0, 1}}
	perm := RelabelMap(sets, sets, 3)
	if !reflect.DeepEqual(perm, []int{0, 1, 2}) {
		t.Fatalf("perm = %v, want identity", perm)
	}
}

func TestRelabelMapEmptyOverlapIsPermutation(t *testing.T) {
	// No comparable tuples: result must still be a valid permutation and
	// prefer the identity.
	perm := RelabelMap(nil, nil, 5)
	seen := make([]bool, 5)
	for q, p := range perm {
		if p < 0 || p >= 5 || seen[p] {
			t.Fatalf("perm = %v is not a permutation", perm)
		}
		seen[p] = true
		if p != q {
			t.Fatalf("perm = %v, want identity on empty overlap", perm)
		}
	}
}

func TestRelabelAssignments(t *testing.T) {
	shared := []int{0, 1}
	sets := [][]int{{0}, {1}, shared, {2}, shared, nil}
	RelabelAssignments(sets, []int{2, 0, 1})
	// Sets aliasing one backing array are rewritten once, not
	// double-permuted, and every set stays sorted.
	want := [][]int{{2}, {0}, {0, 2}, {1}, {0, 2}, nil}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("sets = %v, want %v", sets, want)
	}
}
