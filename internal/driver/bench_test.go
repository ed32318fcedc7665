package driver

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"schism/internal/obs"
)

// BenchmarkHistRecord measures the latency-recording hot path: one
// atomic bucket increment plus summary updates, no allocation.
func BenchmarkHistRecord(b *testing.B) {
	h := &obs.Hist{}
	rng := rand.New(rand.NewSource(1))
	vals := make([]time.Duration, 1024)
	for i := range vals {
		vals[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&1023])
	}
}

// BenchmarkHistRecordParallel measures sharded recording under
// contention-free parallel writers (one shard per goroutine).
func BenchmarkHistRecordParallel(b *testing.B) {
	s := obs.NewSharded(64)
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Shard(int(next.Add(1)))
		v := 750 * time.Microsecond
		for pb.Next() {
			h.Record(v)
		}
	})
}

// BenchmarkHistQuantile measures the read side: a full cumulative walk
// over the bucket array.
func BenchmarkHistQuantile(b *testing.B) {
	h := &obs.Hist{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}
