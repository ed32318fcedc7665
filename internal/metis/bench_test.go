package metis

import (
	"math/rand"
	"sync"
	"testing"
)

// benchEdges synthesises a clique-heavy edge list shaped like graph.Build
// output: many small cliques over a large node space, with heavy duplicate
// edges (hot tuple pairs co-accessed by many transactions).
var benchEdges = sync.OnceValue(func() []BuilderEdge {
	const (
		numNodes = 60000
		numTxns  = 25000
	)
	rng := rand.New(rand.NewSource(17))
	edges := make([]BuilderEdge, 0, numTxns*28)
	for t := 0; t < numTxns; t++ {
		// A "transaction" clique of 3..8 nodes clustered around a home
		// region, mimicking warehouse locality.
		m := 3 + rng.Intn(6)
		home := rng.Intn(numNodes - 64)
		members := make([]int32, m)
		for i := range members {
			members[i] = int32(home + rng.Intn(64))
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if members[i] != members[j] {
					edges = append(edges, BuilderEdge{U: members[i], V: members[j], Weight: 1})
				}
			}
		}
	}
	return edges
})

// BenchmarkNewGraph measures edge-list→CSR assembly with duplicate
// folding, as the hypergraph partitioner's coarsest-level clique
// expansion uses it.
func BenchmarkNewGraph(b *testing.B) {
	edges := benchEdges()
	b.ReportAllocs()
	var g *Graph
	for i := 0; i < b.N; i++ {
		g = mustGraph(NewGraph(60000, edges, nil))
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
}
