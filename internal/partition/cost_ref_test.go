package partition

import (
	"math/rand"
	"testing"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/lookup"
	"schism/internal/workload"
)

// referenceEvaluate is the original map-based cost model, kept as the
// semantic reference for Evaluate: it memoises Locate per TupleID and
// decides each transaction from its read and write sets.
func referenceEvaluate(tr *workload.Trace, s Strategy, resolve Resolver) Cost {
	cache := make(map[workload.TupleID][]int)
	locate := func(id workload.TupleID) []int {
		if parts, ok := cache[id]; ok {
			return parts
		}
		var row Row
		if resolve != nil {
			row = resolve(id)
		}
		parts := s.Locate(id, row)
		cache[id] = parts
		return parts
	}
	c := Cost{Total: tr.Len()}
	for _, t := range tr.Txns {
		if txnDistributed(t, locate) {
			c.Distributed++
		}
	}
	return c
}

// EvaluateAssignments is the map-based reference for
// EvaluateAssignmentsCompact: asg maps tuples to replica sets and def
// covers unassigned tuples (nil means unconstrained).
func EvaluateAssignments(tr *workload.Trace, asg map[workload.TupleID][]int, k int, def []int) Cost {
	locate := func(id workload.TupleID) []int {
		if parts, ok := asg[id]; ok {
			return parts
		}
		return def
	}
	c := Cost{Total: tr.Len()}
	for _, t := range tr.Txns {
		if txnDistributed(t, locate) {
			c.Distributed++
		}
	}
	return c
}

// txnDistributed decides whether a transaction must span >1 partition.
// Tuples whose replica set is empty are unconstrained and impose no
// requirement.
func txnDistributed(t *workload.Txn, locate func(workload.TupleID) []int) bool {
	writes := t.WriteSet()
	reads := t.ReadSet()

	// Partitions the transaction is forced to touch: every replica of
	// every written tuple.
	required := map[int]bool{}
	for _, id := range writes {
		for _, p := range locate(id) {
			required[p] = true
		}
	}
	if len(required) > 1 {
		return true
	}

	if len(required) == 1 {
		// The single required partition must also hold a replica of every
		// tuple the transaction reads.
		var home int
		for p := range required {
			home = p
		}
		for _, id := range reads {
			parts := locate(id)
			if len(parts) == 0 {
				continue
			}
			if !contains(parts, home) {
				return true
			}
		}
		return false
	}

	// Read-only (or all writes unconstrained): single-sited iff the
	// intersection of all non-empty replica sets is non-empty.
	var inter map[int]bool
	for _, id := range reads {
		parts := locate(id)
		if len(parts) == 0 {
			continue
		}
		if inter == nil {
			inter = map[int]bool{}
			for _, p := range parts {
				inter[p] = true
			}
			continue
		}
		for p := range inter {
			if !contains(parts, p) {
				delete(inter, p)
			}
		}
		if len(inter) == 0 {
			return true
		}
	}
	return false
}

// TestEvaluateMatchesReference cross-checks Evaluate against the
// map-based reference on random traces, for every strategy kind the
// validation phase scores: lookup tables (hash fallback, a default
// replica set, and floating), range predicates, hashing by key and by
// column, and full replication.
func TestEvaluateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tables := []string{"stock", "item", "t"}
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3)
		tr := workload.NewTrace()
		for i := 0; i < 120; i++ {
			var acc []workload.Access
			for j := 0; j < 1+rng.Intn(7); j++ {
				acc = append(acc, workload.Access{
					Tuple: tid(tables[rng.Intn(len(tables))], int64(rng.Intn(30))),
					Write: rng.Intn(3) == 0,
				})
			}
			tr.Add(acc)
		}
		// Rows are known for two tuples in three; the rest resolve to nil.
		resolve := func(id workload.TupleID) Row {
			if id.Key%3 == 2 {
				return nil
			}
			return mapRow{"w": datum.NewInt(id.Key % int64(k+1))}
		}

		idx := lookup.NewHashIndex()
		for key := int64(0); key < 30; key++ {
			switch rng.Intn(4) {
			case 0: // untraced: the lookup's fallback applies
			case 1:
				idx.Set(key, rng.Perm(k)[:2])
			default:
				idx.Set(key, []int{rng.Intn(k)})
			}
		}
		router := lookup.NewRouterFromTables(k, map[string]lookup.Table{"t": idx, "stock": idx})
		all := allParts(k)
		split := datum.NewInt(int64(k / 2))
		strategies := []Strategy{
			&Lookup{K: k, Router: router},
			&Lookup{K: k, Router: router, Default: all},
			&Lookup{K: k, Router: router, Floating: true},
			&Range{K: k, Tables: map[string]*TableRules{
				"stock": {Table: "stock", Rules: []RangeRule{
					{Conds: []RangeCond{{Column: "w", Op: dtree.CondLe, Value: split}}, Parts: []int{0}},
					{Conds: []RangeCond{{Column: "w", Op: dtree.CondGt, Value: split}}, Parts: []int{k - 1}},
				}},
				"item": {Table: "item", Default: all},
			}},
			&Hash{K: k},
			&Hash{K: k, Columns: map[string]string{"stock": "w", "t": "w"}},
			&FullReplication{K: k},
		}
		for si, s := range strategies {
			for _, res := range []Resolver{nil, resolve} {
				got := Evaluate(tr, s, res)
				want := referenceEvaluate(tr, s, res)
				if got != want {
					t.Fatalf("trial %d strategy %d (%s, resolver %v): Evaluate %+v != reference %+v",
						trial, si, s.Name(), res != nil, got, want)
				}
			}
		}
	}
}
