package graph

import "schism/internal/workload"

// ProjectLabels projects a deployed tuple placement onto this graph's
// node space, producing the initial assignment a warm-start refinement
// cycle (metis.RefineHKway) starts from. g must come from BuildHyper:
// the passes read co-access evidence off the hypergraph's nets, and a
// clique-expanded graph (nil HG) is not supported. locate returns the
// deployed replica set of a tuple, or nil/empty when the tuple was not
// placed; labels outside [0, k) are ignored, so a placement produced for
// a different k degrades gracefully to "unseen" instead of poisoning the
// seed.
//
// Three deterministic passes, cheapest evidence first:
//
//  1. Deployed placement. Each group takes the replica set of its first
//     member tuple that locate knows (members of a coalesced group are
//     accessed identically, so they share a placement). A plain group's
//     node gets set[0]; an exploded group's centre gets set[0] and, when
//     the set is a single partition, so does every replica — an exact
//     reconstruction. Replicas of multi-partition sets are deferred to
//     pass 1.5.
//     1.5. Replica recovery. Replica node base+1+ri stands for the group's
//     ri-th accessing transaction, so the partitioner placed it with
//     that transaction's other tuples. The dense replica-set view
//     forgets which replica went where; this pass recovers it by giving
//     each deferred replica the deployed-set label with the most votes
//     among its labelled out-of-group neighbours (ties to the lowest
//     label), falling back to set[ri % len(set)] round-robin when no
//     neighbour votes inside the set. Without this, warm-start
//     refinement re-derives the replica spread from scratch every
//     cycle and steady-state cycles never get cheap.
//  2. Plurality neighbour. Unseen nodes, in ascending id order, adopt
//     the most common label among their already-labelled neighbours
//     (ties to the lowest label). The ascending scan cascades: a node
//     labelled here is visible to later unseen nodes.
//  3. Least-loaded. Nodes still unlabelled (isolated, or in components
//     with no deployed evidence) go to the lightest partition by
//     projected node weight, ties to the lowest index.
//
// The result depends only on (g, k, locate) — never on map iteration or
// GOMAXPROCS — and every label is in [0, k).
func (g *Graph) ProjectLabels(k int, locate func(workload.TupleID) []int) []int32 {
	h := g.HG
	n := h.NumNodes()
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	if k < 1 {
		return parts[:0]
	}
	pw := make([]int64, k)
	assign := func(u, p int32) {
		parts[u] = p
		pw[p] += h.NodeWeight(u)
	}

	// Pass 1: deployed placement, per group. Exploded groups deployed on
	// more than one partition park their replicas for pass 1.5; setPool
	// backs the deferred groups' copied sets in one allocation run.
	type deferredGroup struct {
		gi  int32
		set []int
	}
	var deferred []deferredGroup
	var setPool []int
	var set []int
	for gi := range g.groupBase {
		set = set[:0]
		for _, id := range g.GroupTuples[gi] {
			for _, p := range locateSet(locate, id) {
				if p >= 0 && p < k {
					set = append(set, p)
				}
			}
			if len(set) > 0 {
				break
			}
		}
		if len(set) == 0 {
			continue
		}
		base := g.groupBase[gi]
		assign(base, int32(set[0]))
		if g.exploded[int32(gi)] {
			if len(set) == 1 {
				for ri := int32(0); ri < g.accCount[gi]; ri++ {
					assign(base+1+ri, int32(set[0]))
				}
			} else {
				lo := len(setPool)
				setPool = append(setPool, set...)
				deferred = append(deferred, deferredGroup{gi: int32(gi), set: setPool[lo:len(setPool):len(setPool)]})
			}
		}
	}

	// Shared sparse-reset vote counts for passes 1.5 and 2.
	votes := make([]int32, k)
	var touched []int32
	vote := func(p int32) {
		if votes[p] == 0 {
			touched = append(touched, p)
		}
		votes[p]++
	}

	// Pass 1.5: recover deferred replicas from co-access evidence.
	for _, d := range deferred {
		base := g.groupBase[d.gi]
		end := base + 1 + g.accCount[d.gi]
		for ri := int32(0); ri < g.accCount[d.gi]; ri++ {
			u := base + 1 + ri
			touched = touched[:0]
			for j := h.XNets[u]; j < h.XNets[u+1]; j++ {
				e := h.Nets[j]
				for pj := h.XPins[e]; pj < h.XPins[e+1]; pj++ {
					v := h.Pins[pj]
					if (v < base || v >= end) && parts[v] >= 0 {
						vote(parts[v])
					}
				}
			}
			best, bestVotes := int32(-1), int32(0)
			for _, p := range d.set {
				if v := votes[int32(p)]; v > bestVotes || (v == bestVotes && v > 0 && (best < 0 || int32(p) < best)) {
					best, bestVotes = int32(p), v
				}
			}
			for _, p := range touched {
				votes[p] = 0
			}
			if best < 0 {
				best = int32(d.set[int(ri)%len(d.set)])
			}
			assign(u, best)
		}
	}
	// Pass 2: plurality neighbour, ascending with cascade. The sparse
	// reset keeps the pass O(degree) per node.
	for u := int32(0); int(u) < n; u++ {
		if parts[u] >= 0 {
			continue
		}
		touched = touched[:0]
		for j := h.XNets[u]; j < h.XNets[u+1]; j++ {
			e := h.Nets[j]
			for pj := h.XPins[e]; pj < h.XPins[e+1]; pj++ {
				if v := h.Pins[pj]; v != u && parts[v] >= 0 {
					vote(parts[v])
				}
			}
		}
		best, bestVotes := int32(-1), int32(0)
		for _, p := range touched {
			if votes[p] > bestVotes || (votes[p] == bestVotes && p < best) {
				best, bestVotes = p, votes[p]
			}
			votes[p] = 0
		}
		if best >= 0 {
			assign(u, best)
		}
	}

	// Pass 3: least-loaded fallback.
	for u := int32(0); int(u) < n; u++ {
		if parts[u] >= 0 {
			continue
		}
		best := int32(0)
		for p := int32(1); int(p) < k; p++ {
			if pw[p] < pw[best] {
				best = p
			}
		}
		assign(u, best)
	}
	return parts
}

// locateSet shields ProjectLabels from a nil locate function.
func locateSet(locate func(workload.TupleID) []int, id workload.TupleID) []int {
	if locate == nil {
		return nil
	}
	return locate(id)
}
