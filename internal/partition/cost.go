package partition

import (
	"schism/internal/workload"
)

// Cost summarises a strategy's behaviour on a trace.
type Cost struct {
	Total       int
	Distributed int
}

// DistributedFrac returns the fraction of distributed transactions, the
// paper's headline metric (Fig. 4).
func (c Cost) DistributedFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Distributed) / float64(c.Total)
}

// Evaluate counts how many transactions in the trace would be distributed
// under the strategy (§4.4). The model is replica-aware, matching the
// router's behaviour (§5.4):
//
//   - every write must reach every replica of the written tuple, so the
//     transaction must touch the union of written tuples' replica sets;
//   - a read may be served by any replica, so reads prefer a partition the
//     transaction already needs.
//
// A transaction is single-sited iff one partition can serve all of it.
// Tuples whose replica set is empty are unconstrained: brand-new tuples a
// floating lookup strategy lets the transaction create at its home
// partition impose no requirement. Evaluate compacts the trace and
// resolves every distinct tuple once; to score several strategies on one
// trace, compact and resolve once and call EvaluateCompact per strategy.
func Evaluate(tr *workload.Trace, s Strategy, resolve Resolver) Cost {
	c := workload.CompactTrace(tr)
	return EvaluateCompact(c, ResolveRows(c, resolve), s)
}

// ResolveRows fetches the stored row of every distinct tuple of c, indexed
// by dense tuple id. It returns nil when resolve is nil.
func ResolveRows(c *workload.Compact, resolve Resolver) []Row {
	if resolve == nil {
		return nil
	}
	rows := make([]Row, c.NumTuples())
	for d, id := range c.In.Tuples() {
		rows[d] = resolve(id)
	}
	return rows
}

// EvaluateCompact is Evaluate over an interned trace: rows[d] is the
// stored row of dense tuple d (a nil rows slice means none are known).
// The strategy locates each distinct tuple once, into a dense slice the
// counting loop indexes.
func EvaluateCompact(c *workload.Compact, rows []Row, s Strategy) Cost {
	sets := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		var row Row
		if rows != nil {
			row = rows[d]
		}
		sets[d] = s.Locate(id, row)
	}
	return EvaluateAssignmentsCompact(c, sets, nil)
}

func contains(parts []int, p int) bool {
	for _, q := range parts {
		if q == p {
			return true
		}
	}
	return false
}

// EvaluateAssignmentsCompact counts distributed transactions for a raw
// per-tuple assignment (the graph partitioner's direct output, the
// "schism" series in Fig. 4 before any explanation) over an interned
// trace: sets[d] is the replica set of dense tuple d in c's interner (nil
// means unassigned: the default replica set def applies, and a nil def
// leaves the tuple unconstrained). The hot loop indexes slices by dense
// id — no TupleID hashing, no per-transaction read/write-set allocation.
// Use graph.DenseAssignmentsFor to align a partitioning with the
// evaluation trace's interner.
func EvaluateAssignmentsCompact(c *workload.Compact, sets [][]int, def []int) Cost {
	cost := Cost{Total: c.NumTxns()}
	var scratch evalScratch
	for ti := 0; ti < c.NumTxns(); ti++ {
		if txnDistributedCompact(c.Txn(ti), sets, def, &scratch) {
			cost.Distributed++
		}
	}
	return cost
}

// evalScratch holds the small partition-set buffers reused across
// transactions by txnDistributedCompact.
type evalScratch struct {
	req   []int
	inter []int
}

// txnDistributedCompact decides whether a transaction must span more than
// one partition, under the replica-aware model Evaluate describes.
// Duplicate accesses need no deduplication: every step is idempotent.
func txnDistributedCompact(accs []uint32, sets [][]int, def []int, s *evalScratch) bool {
	locate := func(e uint32) []int {
		if p := sets[e&^workload.WriteBit]; p != nil {
			return p
		}
		return def
	}
	// Partitions the transaction is forced to touch: every replica of
	// every written tuple.
	req := s.req[:0]
	for _, e := range accs {
		if e&workload.WriteBit == 0 {
			continue
		}
		for _, p := range locate(e) {
			if !contains(req, p) {
				req = append(req, p)
			}
		}
		if len(req) > 1 {
			s.req = req
			return true
		}
	}
	s.req = req

	if len(req) == 1 {
		// The single required partition must also hold a replica of every
		// tuple the transaction reads.
		home := req[0]
		for _, e := range accs {
			if e&workload.WriteBit != 0 {
				continue
			}
			parts := locate(e)
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
	inter := s.inter[:0]
	first := true
	for _, e := range accs {
		if e&workload.WriteBit != 0 {
			continue
		}
		parts := locate(e)
		if len(parts) == 0 {
			continue
		}
		if first {
			inter = append(inter, parts...)
			first = false
			continue
		}
		k := 0
		for _, p := range inter {
			if contains(parts, p) {
				inter[k] = p
				k++
			}
		}
		inter = inter[:k]
		if len(inter) == 0 {
			s.inter = inter
			return true
		}
	}
	s.inter = inter
	return false
}
