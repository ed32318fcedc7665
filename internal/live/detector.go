package live

import (
	"fmt"

	"schism/internal/partition"
	"schism/internal/workload"
)

// DetectorConfig tunes drift detection.
type DetectorConfig struct {
	// MinWindow is the minimum number of windowed transactions before the
	// detector scores at all (default 256).
	MinWindow int
	// DistributedFloor is an absolute %distributed below which the
	// deployment is considered healthy regardless of relative degradation
	// (default 0.05).
	DistributedFloor float64
	// DegradeFactor triggers repartitioning when the live distributed
	// fraction exceeds DegradeFactor × the post-deployment baseline
	// (default 1.5).
	DegradeFactor float64
	// ImbalanceTrigger triggers when the most-loaded partition carries
	// more than this multiple of the mean per-partition access weight.
	// Zero means the default (1.75); a negative value disables balance
	// triggering entirely.
	ImbalanceTrigger float64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.MinWindow <= 0 {
		c.MinWindow = 256
	}
	if c.DistributedFloor <= 0 {
		c.DistributedFloor = 0.05
	}
	if c.DegradeFactor <= 1 {
		c.DegradeFactor = 1.5
	}
	if c.ImbalanceTrigger == 0 {
		c.ImbalanceTrigger = 1.75
	}
	return c
}

// Score measures the deployed placement's fit to a workload window.
type Score struct {
	// Txns is the number of transactions scored.
	Txns int
	// Distributed is the fraction of scored transactions that would span
	// more than one partition (the paper's headline metric).
	Distributed float64
	// Imbalance is max over partitions of (access weight / mean access
	// weight); 1 is perfect balance. Replicated tuples split their weight
	// across their replicas, mirroring a read-anywhere router.
	Imbalance float64
}

func (s Score) String() string {
	return fmt.Sprintf("txns=%d distributed=%.1f%% imbalance=%.2f", s.Txns, 100*s.Distributed, s.Imbalance)
}

// LocateFunc resolves a tuple's currently deployed replica set; nil means
// the placement is unknown (new tuples float to their transaction's home,
// matching partition.Lookup semantics).
type LocateFunc func(id workload.TupleID) []int

// ScoreWindow evaluates a placement against a window snapshot: the trace
// is interned once and scored with the compact evaluator, so the hot loop
// indexes slices rather than hashing tuples.
func ScoreWindow(tr *workload.Trace, k int, locate LocateFunc) Score {
	if tr.Len() == 0 {
		return Score{}
	}
	c := workload.CompactTrace(tr)
	sets := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		sets[d] = locate(id)
	}
	cost := partition.EvaluateAssignmentsCompact(c, sets, nil)

	load := make([]float64, k)
	var total float64
	for _, e := range c.Accs {
		set := sets[e&^workload.WriteBit]
		if len(set) == 0 {
			continue
		}
		share := 1.0 / float64(len(set))
		for _, p := range set {
			if p >= 0 && p < k {
				load[p] += share
				total += share
			}
		}
	}
	imb := 1.0
	if total > 0 && k > 0 {
		mean := total / float64(k)
		for _, l := range load {
			if r := l / mean; r > imb {
				imb = r
			}
		}
	}
	return Score{Txns: cost.Total, Distributed: cost.DistributedFrac(), Imbalance: imb}
}

// Detector decides when the deployed placement has drifted far enough
// from the live workload to repartition.
type Detector struct {
	cfg      DetectorConfig
	baseline Score
	hasBase  bool
}

// NewDetector returns a detector with the given thresholds.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// SetBaseline records the post-deployment score that future scores are
// judged against.
func (d *Detector) SetBaseline(s Score) {
	d.baseline = s
	d.hasBase = true
}

// Baseline returns the current baseline score.
func (d *Detector) Baseline() (Score, bool) { return d.baseline, d.hasBase }

// Drift quantifies how far a score has degraded from the baseline as a
// ratio: ~1 when the deployment is at baseline, larger as it worsens, 0
// when there is no baseline yet or the window is below minimum. It takes
// the worse of the distributed-fraction ratio (baseline floored at
// DistributedFloor so a near-perfect baseline doesn't explode the ratio)
// and the imbalance ratio. The repartitioner's drift cut threshold consumes
// it to escape warm-start cycles on large workload shifts.
func (d *Detector) Drift(s Score) float64 {
	if !d.hasBase || s.Txns < d.cfg.MinWindow {
		return 0
	}
	base := d.baseline.Distributed
	if base < d.cfg.DistributedFloor {
		base = d.cfg.DistributedFloor
	}
	drift := s.Distributed / base
	if d.baseline.Imbalance > 0 {
		if r := s.Imbalance / d.baseline.Imbalance; r > drift {
			drift = r
		}
	}
	return drift
}

// Check reports whether the score warrants repartitioning, and why. The
// first scored window becomes the baseline when none is set.
func (d *Detector) Check(s Score) (bool, string) {
	if s.Txns < d.cfg.MinWindow {
		return false, "window below minimum"
	}
	if !d.hasBase {
		d.SetBaseline(s)
		return false, "baseline established"
	}
	if d.cfg.ImbalanceTrigger > 0 && s.Imbalance > d.cfg.ImbalanceTrigger {
		return true, fmt.Sprintf("imbalance %.2f > %.2f", s.Imbalance, d.cfg.ImbalanceTrigger)
	}
	if s.Distributed <= d.cfg.DistributedFloor {
		return false, "distributed fraction under floor"
	}
	if s.Distributed > d.cfg.DegradeFactor*d.baseline.Distributed {
		return true, fmt.Sprintf("distributed %.1f%% > %.1fx baseline %.1f%%",
			100*s.Distributed, d.cfg.DegradeFactor, 100*d.baseline.Distributed)
	}
	return false, "within thresholds"
}
