// Package driver is the end-to-end benchmark harness: it drives a
// cluster.Coordinator with concurrent closed-loop (or open-loop,
// fixed-arrival-rate) clients executing transactions drawn from
// deterministic per-client streams, and reports throughput, latency
// percentiles, distributed-transaction and abort rates, and per-node
// load imbalance. This is the measurement surface behind the paper's
// headline claim: fewer distributed transactions means higher TPS
// (§3, §6.3).
package driver

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster"
	"schism/internal/obs"
)

// Op is one logical client transaction drawn from a Stream. Every random
// parameter is drawn when the Op is generated, so Run is idempotent under
// concurrency-control retries: the retry loop re-executes the same
// logical transaction rather than re-drawing a fresh one (the way
// cluster.TxnFunc generators do). Sig is a compact, deterministic
// description of the drawn parameters; the driver folds each client's Sig
// stream into a hash so determinism is checkable end to end.
type Op struct {
	Sig string
	Run func(t *cluster.Txn) error
}

// Stream yields one client's transactions. A Stream is owned by exactly
// one client goroutine and need not be safe for concurrent use.
type Stream interface {
	Next() Op
}

// StreamFunc adapts a generator function to Stream.
type StreamFunc func() Op

// Next implements Stream.
func (f StreamFunc) Next() Op { return f() }

// StreamMaker builds client c's stream. It must be deterministic in
// (client, seed) and independent of every other client, so that a
// fixed-seed run produces byte-identical per-client operation sequences
// at any GOMAXPROCS and under any retry interleaving.
type StreamMaker func(client int, seed int64) Stream

// Config parameterises one benchmark run.
type Config struct {
	// Clients is the number of concurrent client goroutines (required).
	Clients int
	// Warmup is excluded from measurement: transactions started before
	// the warmup deadline are executed but not recorded.
	Warmup time.Duration
	// Measure is the measurement-phase duration (duration mode).
	Measure time.Duration
	// Ops, when positive, switches to deterministic count mode: each
	// client runs exactly Ops transactions, all measured, and Warmup and
	// Measure are ignored. Fixed work makes runs byte-comparable.
	Ops int
	// Seed drives every client stream (client c uses (c, Seed)).
	Seed int64
	// Rate, when positive, switches clients from closed-loop to
	// open-loop: transactions are started on a fixed schedule totalling
	// Rate transactions/second across all clients, and latency is
	// measured from the scheduled start (so queueing delay from a
	// saturated cluster is charged to latency, avoiding coordinated
	// omission). Zero means closed loop: each client submits its next
	// transaction as soon as the previous one finishes.
	Rate float64
	// HistShards overrides the latency histogram shard count (default:
	// one shard per client).
	HistShards int
	// BucketWidth, when positive, records committed transactions into
	// fixed-width time buckets counted from the start of the measurement
	// phase (Result.Buckets). Availability experiments use it to see the
	// throughput dip around a failover: an empty bucket is a window in
	// which nothing committed.
	BucketWidth time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Ops <= 0 && c.Measure <= 0 {
		c.Measure = time.Second
	}
	if c.HistShards <= 0 {
		c.HistShards = c.Clients
	}
	return c
}

// Result aggregates one run. All counters cover the measurement phase
// only.
type Result struct {
	Clients int
	Elapsed time.Duration // measurement-phase wall clock

	Committed   int64 // committed transactions
	Distributed int64 // committed transactions touching > 1 node
	Aborts      int64 // concurrency-control aborts that were retried
	Failed      int64 // transactions that permanently failed (incl. starvation)

	// StmtLocal / StmtDistributed classify committed transactions'
	// statements (each statement counted once; see cluster.TxnResult).
	StmtLocal, StmtDistributed int64

	// Latency is the merged transaction-commit latency histogram;
	// StmtLatency the per-statement one.
	Latency     *obs.Hist
	StmtLatency *obs.Hist

	// NodeOps is the number of statements each node executed during the
	// measurement phase.
	NodeOps []int64

	// ClientSigs holds one FNV-1a hash per client over its full Op Sig
	// stream. In Ops mode the hashes are run-invariant: any two runs with
	// the same (streams, seed, ops) produce identical values regardless
	// of GOMAXPROCS or scheduling.
	ClientSigs []uint64

	// Buckets counts committed transactions per BucketWidth-wide window
	// from the start of the measurement phase (nil unless
	// Config.BucketWidth was set). The final bucket may cover a partial
	// window.
	Buckets     []int64
	BucketWidth time.Duration
}

// MinWindow aggregates Buckets into windows of width w (rounded up to a
// whole number of buckets) and returns the smallest committed count over
// all FULL windows, with the number of full windows. Availability tests
// use it to assert "every 1s window committed something" across a
// failover; -1 when bucketing was off or no full window fits.
func (r *Result) MinWindow(w time.Duration) (min int64, windows int) {
	if r.BucketWidth <= 0 || len(r.Buckets) == 0 {
		return -1, 0
	}
	per := int((w + r.BucketWidth - 1) / r.BucketWidth)
	if per <= 0 {
		per = 1
	}
	min = -1
	for i := 0; i+per <= len(r.Buckets); i += per {
		var sum int64
		for _, v := range r.Buckets[i : i+per] {
			sum += v
		}
		if min < 0 || sum < min {
			min = sum
		}
		windows++
	}
	return min, windows
}

// Throughput returns committed transactions per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// DistributedFrac returns the fraction of committed transactions that
// spanned more than one node.
func (r *Result) DistributedFrac() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Distributed) / float64(r.Committed)
}

// DistStmtFrac returns the fraction of committed statements that spanned
// more than one node.
func (r *Result) DistStmtFrac() float64 {
	total := r.StmtLocal + r.StmtDistributed
	if total == 0 {
		return 0
	}
	return float64(r.StmtDistributed) / float64(total)
}

// AbortRate returns aborts per transaction attempt
// (aborts / (committed + aborts + failed)).
func (r *Result) AbortRate() float64 {
	attempts := r.Committed + r.Aborts + r.Failed
	if attempts == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(attempts)
}

// Imbalance returns max/mean of per-node executed statements (1.0 is
// perfectly balanced; 0 when nothing ran).
func (r *Result) Imbalance() float64 {
	if len(r.NodeOps) == 0 {
		return 0
	}
	var sum, max int64
	for _, v := range r.NodeOps {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.NodeOps))
	return float64(max) / mean
}

// String renders the one-line run summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clients=%d commits=%d tps=%.0f distributed=%.1f%% dist-stmts=%.1f%% aborts=%d (%.1f%%) imbalance=%.2f",
		r.Clients, r.Committed, r.Throughput(), 100*r.DistributedFrac(),
		100*r.DistStmtFrac(), r.Aborts, 100*r.AbortRate(), r.Imbalance())
	if r.Latency != nil && r.Latency.Count() > 0 {
		fmt.Fprintf(&b, " p50=%v p95=%v p99=%v p999=%v",
			r.Latency.Quantile(0.50), r.Latency.Quantile(0.95),
			r.Latency.Quantile(0.99), r.Latency.Quantile(0.999))
	}
	return b.String()
}

// Run drives the coordinator with cfg.Clients concurrent clients, each
// executing transactions from its own deterministic stream, and returns
// the measured statistics. Concurrency-control aborts are retried inside
// the cluster's retry loop (wait-die timestamps age so retries win);
// permanent failures are counted and skipped.
func Run(co *cluster.Coordinator, cfg Config, mk StreamMaker) *Result {
	cfg = cfg.withDefaults()
	lat := obs.NewSharded(cfg.HistShards)
	stmtLat := obs.NewSharded(cfg.HistShards)

	var (
		committed   atomic.Int64
		distributed atomic.Int64
		aborts      atomic.Int64
		failed      atomic.Int64
		stmtLocal   atomic.Int64
		stmtDist    atomic.Int64
	)
	sigs := make([]uint64, cfg.Clients)

	start := time.Now()
	warmupEnd := start.Add(cfg.Warmup)
	measureEnd := warmupEnd.Add(cfg.Measure)
	opsMode := cfg.Ops > 0
	if opsMode {
		warmupEnd = start
	}

	// Per-node load is diffed across the measurement window. In duration
	// mode the warmup boundary is crossed independently by each client,
	// so the snapshot is taken when the wall clock passes warmupEnd —
	// the same fuzziness the per-transaction measured flag has.
	baseOps := co.Cluster().NodeOps()
	var baseOnce sync.Once
	snapBase := func() { baseOps = co.Cluster().NodeOps() }
	if !opsMode && cfg.Warmup > 0 {
		timer := time.AfterFunc(time.Until(warmupEnd), func() { baseOnce.Do(snapBase) })
		defer timer.Stop()
	}

	var bk *bucketCounter
	if cfg.BucketWidth > 0 {
		bk = &bucketCounter{width: cfg.BucketWidth, epoch: warmupEnd}
	}

	var measuredStart, measuredEnd atomic.Int64 // unix nanos of first/last measured txn
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			stream := mk(client, cfg.Seed)
			hl := lat.Shard(client)
			hs := stmtLat.Shard(client)
			sig := fnv.New64a()
			defer func() { sigs[client] = sig.Sum64() }()
			obs := func(_ string, _ bool, _ int, d time.Duration) { hs.Record(d) }

			var interval time.Duration
			var next time.Time
			if cfg.Rate > 0 {
				interval = time.Duration(float64(cfg.Clients) / cfg.Rate * float64(time.Second))
				// Stagger client phases so aggregate arrivals are evenly
				// spaced rather than bursts of cfg.Clients.
				next = start.Add(interval * time.Duration(client) / time.Duration(cfg.Clients))
			}

			for i := 0; ; i++ {
				if opsMode {
					if i >= cfg.Ops {
						return
					}
				} else if !time.Now().Before(measureEnd) {
					return
				}
				op := stream.Next()
				sig.Write([]byte(op.Sig))
				sig.Write([]byte{'\n'})

				txnStart := time.Now()
				if cfg.Rate > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					txnStart = next // open loop: latency from scheduled arrival
					next = next.Add(interval)
				}
				measured := opsMode || !txnStart.Before(warmupEnd)
				res, err := co.RunTxnStats(func(t *cluster.Txn) error {
					if measured {
						t.SetStmtObserver(obs)
					}
					return op.Run(t)
				})
				if !measured {
					continue
				}
				done := time.Now()
				if err != nil {
					aborts.Add(int64(res.Aborts))
					failed.Add(1)
					continue
				}
				committed.Add(1)
				if bk != nil {
					bk.record(done)
				}
				aborts.Add(int64(res.Aborts))
				if res.Distributed {
					distributed.Add(1)
				}
				stmtLocal.Add(int64(res.StmtLocal))
				stmtDist.Add(int64(res.StmtDistributed))
				hl.Record(done.Sub(txnStart))
				stampRange(&measuredStart, &measuredEnd, txnStart, done)
			}
		}(c)
	}
	wg.Wait()
	// Claim the warmup snapshot slot: if the timer is mid-snapshot this
	// waits for it, and if it never fired it now never will, so the read
	// of baseOps below is race-free either way.
	baseOnce.Do(func() {})

	res := &Result{
		Clients:         cfg.Clients,
		Committed:       committed.Load(),
		Distributed:     distributed.Load(),
		Aborts:          aborts.Load(),
		Failed:          failed.Load(),
		StmtLocal:       stmtLocal.Load(),
		StmtDistributed: stmtDist.Load(),
		Latency:         lat.Merged(),
		StmtLatency:     stmtLat.Merged(),
		ClientSigs:      sigs,
	}
	if bk != nil {
		res.Buckets = bk.counts
		res.BucketWidth = cfg.BucketWidth
	}
	endOps := co.Cluster().NodeOps()
	res.NodeOps = make([]int64, len(endOps))
	for i := range endOps {
		res.NodeOps[i] = endOps[i] - baseOps[i]
	}
	if s, e := measuredStart.Load(), measuredEnd.Load(); e > s && s > 0 {
		res.Elapsed = time.Duration(e - s)
	}
	return res
}

// bucketCounter files each committed transaction into the fixed-width
// window its commit time falls in, growing the slice as the run extends
// (ops mode has no known duration up front). The per-commit mutex is
// noise next to executing a transaction.
type bucketCounter struct {
	mu     sync.Mutex
	width  time.Duration
	epoch  time.Time
	counts []int64
}

func (b *bucketCounter) record(done time.Time) {
	since := done.Sub(b.epoch)
	if since < 0 {
		return
	}
	i := int(since / b.width)
	b.mu.Lock()
	for len(b.counts) <= i {
		b.counts = append(b.counts, 0)
	}
	b.counts[i]++
	b.mu.Unlock()
}

// stampRange widens the [lo, hi] unix-nano window to include one
// measured transaction's start and completion times.
func stampRange(lo, hi *atomic.Int64, start, end time.Time) {
	s, e := start.UnixNano(), end.UnixNano()
	for {
		cur := lo.Load()
		if cur != 0 && cur <= s {
			break
		}
		if lo.CompareAndSwap(cur, s) {
			break
		}
	}
	for {
		cur := hi.Load()
		if cur >= e {
			break
		}
		if hi.CompareAndSwap(cur, e) {
			break
		}
	}
}
