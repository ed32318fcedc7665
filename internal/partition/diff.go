package partition

import "sort"

// Assignment-diff and relabeling helpers over dense replica-set
// assignments ([][]int indexed by a shared dense tuple id, as produced by
// graph.DenseAssignments). They serve the live repartitioning loop — the
// migration planner diffs the deployed assignment against a fresh
// partitioning, and the relabeler permutes the fresh partition labels to
// minimise that diff — but are useful standalone for experiment
// reporting.

// Diff summarises how two dense assignments differ. Tuples whose old or
// new replica set is nil (unknown to one side) are not compared.
type Diff struct {
	// Total is the number of tuples with both sets known.
	Total int
	// Moved counts tuples whose replica set changed at all.
	Moved int
	// Copies counts replica additions (tuple copies migration must create);
	// a tuple moving from {0} to {1,2} contributes 2.
	Copies int
	// Drops counts replica removals.
	Drops int
	// PartGain[p] / PartLoss[p] count replicas partition p gains / loses.
	PartGain []int
	PartLoss []int
}

// AssignmentDiff compares two dense assignments over the same tuple-id
// space: old[d] and new[d] are the replica sets (sorted, as the graph and
// lookup layers produce them) of dense tuple d. k bounds the per-part
// churn arrays.
func AssignmentDiff(oldSets, newSets [][]int, k int) Diff {
	d := Diff{PartGain: make([]int, k), PartLoss: make([]int, k)}
	n := len(oldSets)
	if len(newSets) < n {
		n = len(newSets)
	}
	for i := 0; i < n; i++ {
		o, nw := oldSets[i], newSets[i]
		if o == nil || nw == nil {
			continue
		}
		d.Total++
		adds, dels := SetDelta(o, nw)
		if len(adds) == 0 && len(dels) == 0 {
			continue
		}
		d.Moved++
		d.Copies += len(adds)
		d.Drops += len(dels)
		for _, p := range adds {
			if p >= 0 && p < k {
				d.PartGain[p]++
			}
		}
		for _, p := range dels {
			if p >= 0 && p < k {
				d.PartLoss[p]++
			}
		}
	}
	return d
}

// SetDelta returns newSet\oldSet (adds) and oldSet\newSet (dels) for two
// sorted partition sets; the migration planner and diff both build on it.
func SetDelta(oldSet, newSet []int) (adds, dels []int) {
	i, j := 0, 0
	for i < len(oldSet) && j < len(newSet) {
		switch {
		case oldSet[i] == newSet[j]:
			i++
			j++
		case oldSet[i] < newSet[j]:
			dels = append(dels, oldSet[i])
			i++
		default:
			adds = append(adds, newSet[j])
			j++
		}
	}
	dels = append(dels, oldSet[i:]...)
	adds = append(adds, newSet[j:]...)
	return adds, dels
}

// RelabelMap chooses a permutation of the NEW assignment's partition
// labels that maximises agreement with the OLD assignment: perm[q] = p
// means new label q is renamed to old label p. It solves max-weight
// bipartite part-matching greedily on the overlap matrix
// O[q][p] = |{tuples d : p ∈ old[d] and q ∈ new[d]}|, which minimises the
// tuples a migration must move when the fresh partitioning is largely a
// rotation of the deployed one. Ties break toward the identity and then
// the lowest label pair, so equal inputs give deterministic output.
// Tuples with a nil side are skipped, matching AssignmentDiff.
func RelabelMap(oldSets, newSets [][]int, k int) []int {
	overlap := make([][]int64, k)
	for q := range overlap {
		overlap[q] = make([]int64, k)
	}
	n := len(oldSets)
	if len(newSets) < n {
		n = len(newSets)
	}
	for i := 0; i < n; i++ {
		o, nw := oldSets[i], newSets[i]
		if o == nil || nw == nil {
			continue
		}
		for _, q := range nw {
			if q < 0 || q >= k {
				continue
			}
			for _, p := range o {
				if p >= 0 && p < k {
					overlap[q][p]++
				}
			}
		}
	}

	perm := make([]int, k)
	for i := range perm {
		perm[i] = -1
	}
	usedOld := make([]bool, k)
	for round := 0; round < k; round++ {
		bestQ, bestP := -1, -1
		var bestW int64 = -1
		for q := 0; q < k; q++ {
			if perm[q] >= 0 {
				continue
			}
			for p := 0; p < k; p++ {
				if usedOld[p] {
					continue
				}
				w := overlap[q][p]
				better := w > bestW
				if w == bestW && bestQ >= 0 {
					// Prefer keeping the label, then the lowest pair.
					if q == p && bestQ != bestP {
						better = true
					} else if (q == p) == (bestQ == bestP) && (q < bestQ || (q == bestQ && p < bestP)) {
						better = true
					}
				}
				if better {
					bestW, bestQ, bestP = w, q, p
				}
			}
		}
		perm[bestQ] = bestP
		usedOld[bestP] = true
	}
	return perm
}

// RelabelAssignments applies a label permutation to a dense assignment in
// place: every replica set s becomes {perm[p] : p ∈ s}, re-sorted so the
// sets stay in the canonical order SetDelta expects. DenseAssignments
// aliases one slice across all tuples of a coalesced group, so slices are
// deduplicated by backing-array identity first — each distinct slice is
// rewritten exactly once, never double-permuted. Labels outside
// [0, len(perm)) are left alone.
func RelabelAssignments(sets [][]int, perm []int) {
	done := make(map[*int]struct{}, len(sets))
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		if _, seen := done[&s[0]]; seen {
			continue
		}
		done[&s[0]] = struct{}{}
		for i, p := range s {
			if p >= 0 && p < len(perm) {
				s[i] = perm[p]
			}
		}
		sort.Ints(s)
	}
}
