package live

import (
	"slices"

	"schism/internal/partition"
	"schism/internal/workload"
)

// Move relocates one tuple: create replicas on Adds (copying the row from
// CopyFrom), drop replicas from Dels, and flip the routing entry to the
// full new replica set To once the data movement commits.
type Move struct {
	Table    string
	Key      int64
	CopyFrom int
	Adds     []int
	Dels     []int
	To       []int
}

// Plan is an ordered list of tuple moves. Order is the dense-id order of
// the repartitioning's tuple table, so equal inputs plan identically.
type Plan struct {
	Moves []Move
	// Copies / Drops total the per-replica work across moves.
	Copies int
	Drops  int
}

// BuildPlanSets diffs the deployed placement against a new assignment:
// tuples[i] moves from replica set oldSets[i] to newSets[i]. Tuples whose
// deployed set is unknown (nil — new tuples that float with their
// transactions) are left alone: their rows live wherever they were
// created, and only the routing layer knows nothing either way. A
// Repartition already resolved every windowed tuple once for its
// movement diff and exposes the result as Deployed, so callers plan from
// it without a second per-tuple placement lookup.
func BuildPlanSets(tuples []workload.TupleID, oldSets, newSets [][]int) Plan {
	var p Plan
	for i, id := range tuples {
		to := newSets[i]
		if to == nil {
			continue
		}
		from := oldSets[i]
		if from == nil {
			continue
		}
		adds, dels := partition.SetDelta(from, to)
		if len(adds) == 0 && len(dels) == 0 {
			continue
		}
		m := Move{Table: id.Table, Key: id.Key, CopyFrom: from[0], Adds: adds, Dels: dels, To: to}
		// Prefer copying from a replica that survives the move.
		for _, f := range from {
			if slices.Contains(to, f) {
				m.CopyFrom = f
				break
			}
		}
		p.Moves = append(p.Moves, m)
		p.Copies += len(adds)
		p.Drops += len(dels)
	}
	return p
}

// Batches splits the plan into batches of at most size moves, each applied
// as one migration transaction.
func (p Plan) Batches(size int) [][]Move {
	if size <= 0 {
		size = 32
	}
	var out [][]Move
	for lo := 0; lo < len(p.Moves); lo += size {
		hi := lo + size
		if hi > len(p.Moves) {
			hi = len(p.Moves)
		}
		out = append(out, p.Moves[lo:hi])
	}
	return out
}
