package graph

import (
	"fmt"

	"schism/internal/metis"
	"schism/internal/workload"
)

// BuildHyper constructs the hypergraph-native workload representation:
// one net per transaction over the distinct group nodes it accesses
// (weight 1, so the connectivity metric counts distributed
// transactions directly), plus one net per replicated group spanning
// its centre and all replicas, weighted by the group's update count —
// the same information Build encodes, but linear in total access-set
// size where the clique expansion is quadratic.
//
// The front half (trace heuristics, interning, coalescing, node layout,
// weights) is shared with Build, so the two representations describe
// the same node space and every partitioning translation (Assignments,
// DenseAssignments, ...) works unchanged. The transaction nets are the
// per-transaction node lists Build assembles its rows from (txnNodes),
// built by workers writing into precomputed slots, so the result is
// byte-identical to a single-threaded build regardless of worker count.
func BuildHyper(tr *workload.Trace, opts Options) (*Graph, error) {
	g, c, nwgt, numNodes, numGroups, numTxns, err := buildCore(tr, opts)
	if err != nil {
		return nil, err
	}
	xpins, pins, netWgt, err := g.buildPins(c, numGroups, numTxns)
	if err != nil {
		return nil, err
	}
	g.HG, err = metis.NewHGraph(int(numNodes), xpins, pins, netWgt, nwgt)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// hyperNetScale is the fixed-point weight unit for hypergraph nets: a
// transaction net weighs hyperNetScale, so sub-transaction costs (the
// per-arm replication glue in replWeights) stay expressible as positive
// integers. Connectivity costs are reported in these units — divide by
// hyperNetScale for "distributed transaction equivalents".
const hyperNetScale = 64

// buildPins generates the net pin lists in CSR form: one transaction net
// per list txnNodes builds (transactions touching fewer than two distinct
// groups produce none), replication nets appended serially.
func (g *Graph) buildPins(c *workload.Compact, numGroups, numTxns int) (xpins, pins []int32, netWgt []int64, err error) {
	var replNets, replPins int64
	for gi := int32(0); int(gi) < numGroups; gi++ {
		if !g.exploded[gi] {
			continue
		}
		updates, armW := g.replWeights(gi)
		acc := int64(g.accCount[gi])
		if updates > 0 {
			replNets++
			replPins += acc + 1
		}
		if armW > 0 {
			replNets += acc
			replPins += 2 * acc
		}
	}
	var txnNets, txnPins int64
	off, nodes, err := g.txnNodes(c, numGroups, replPins, func(size []int32) error {
		for _, m := range size {
			if m > 0 {
				txnNets++
				txnPins += int64(m)
			}
		}
		// Every net has >= 2 pins, so the pin check also bounds the net
		// count.
		if err := metis.CheckCSRCapacity(txnPins + replPins); err != nil {
			return fmt.Errorf("graph: %d hypergraph pins from %d transactions: %w (sample the trace)",
				txnPins+replPins, numTxns, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	xpins = make([]int32, txnNets+replNets+1)
	pins = nodes[:txnPins+replPins]
	netWgt = make([]int64, txnNets+replNets)
	e := 0
	for ti := 0; ti < numTxns; ti++ {
		if off[ti+1] > off[ti] {
			netWgt[e] = hyperNetScale
			xpins[e+1] = off[ti+1]
			e++
		}
	}

	// Replication nets, two kinds per exploded group (see replWeights):
	// a group net spanning the centre and every replica, weight
	// hyperNetScale·updates, whose connectivity cost prices what
	// replication actually costs — each extra partition holding a copy is
	// one more site every update must reach — and 2-pin centre–replica
	// arm nets at the amortised weight ⌊hyperNetScale·updates/replicas⌋,
	// which give the flat λ−1 metric a per-move gradient toward
	// consolidating written groups. Rarely-written groups get weight-0
	// arms (omitted) and read-only groups no nets at all: their replicas
	// scatter for free, which is the point of replicating them.
	w := txnPins
	for gi := int32(0); int(gi) < numGroups; gi++ {
		if !g.exploded[gi] {
			continue
		}
		updates, armW := g.replWeights(gi)
		base := g.groupBase[gi]
		if updates > 0 {
			pins[w] = base
			w++
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins[w] = base + 1 + ri
				w++
			}
			netWgt[e] = hyperNetScale * updates
			xpins[e+1] = int32(w)
			e++
		}
		if armW > 0 {
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins[w] = base
				pins[w+1] = base + 1 + ri
				netWgt[e] = armW
				w += 2
				xpins[e+1] = int32(w)
				e++
			}
		}
	}
	return xpins, pins, netWgt, nil
}

// replWeights returns an exploded group's update count and the weight of
// its per-arm glue nets: ⌊hyperNetScale·updates/replicas⌋, i.e. the
// group net's weight amortised over its arms. Write-hot groups (updates
// comparable to accesses, like a TPC-C district) get arms near a whole
// transaction net's weight — a strong pull keeping replicas with their
// centre — while for read-mostly groups the floor division yields 0 and
// the arms are omitted, leaving their replicas free to scatter.
func (g *Graph) replWeights(gi int32) (updates, armWeight int64) {
	for _, f := range g.groupFlags(gi) {
		if f&flagWrite != 0 {
			updates++
		}
	}
	return updates, hyperNetScale * updates / int64(g.accCount[gi])
}
