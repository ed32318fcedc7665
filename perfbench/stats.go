package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the usual "type 7" definition). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the q-quantile of xs when at least ten samples lie beyond
// it, and ok=false otherwise: the benchmark reports no percentile its
// sample count cannot support.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < 10 {
		return 0, false
	}
	return quantile(xs, q), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupEach runs set-up n times, the i-th building input i, and returns
// the inputs and the median set-up time in seconds. A collection runs
// before each set-up, so one set-up's garbage is not charged to the next,
// and after the last the freed pages go back to the OS, so the measured
// phase starts from the set-up's resident state.
func setupEach[T any](n int, fn func(i int) (T, error)) ([]T, float64, error) {
	var out []T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		s, err := fn(i)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		out = append(out, s)
	}
	debug.FreeOSMemory()
	return out, median(secs), nil
}

// rssSampler polls the process's resident set size while a measurement
// runs; peak_rss_mb is the largest value seen.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	s.mu.Lock()
	if rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// stopMB ends sampling and returns the peak in MiB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// runtimeStats reads the allocation and GC CPU counters of the Go
// runtime; the difference of two readings attributes them to the work
// in between.
type runtimeStats struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(samples[0]), gcCPU: val(samples[1]), totalCPU: val(samples[2])}
}

// runtimeDelta sums the runtime counters over the measured stretches of
// a run (begin/end pairs), leaving out set-up and checks between them.
type runtimeDelta struct {
	start, sum runtimeStats
}

func (d *runtimeDelta) begin() { d.start = readRuntime() }

func (d *runtimeDelta) end() {
	now := readRuntime()
	d.merge(runtimeDelta{sum: runtimeStats{
		allocBytes: now.allocBytes - d.start.allocBytes,
		gcCPU:      now.gcCPU - d.start.gcCPU,
		totalCPU:   now.totalCPU - d.start.totalCPU,
	}})
}

func (d *runtimeDelta) merge(o runtimeDelta) {
	d.sum.allocBytes += o.sum.allocBytes
	d.sum.gcCPU += o.sum.gcCPU
	d.sum.totalCPU += o.sum.totalCPU
}

// set records runtime.alloc_mb (per op) and runtime.gc_cpu_pct.
func (d *runtimeDelta) set(m Metrics, ops int64) {
	if ops > 0 {
		m.set("runtime.alloc_mb", d.sum.allocBytes/(1<<20)/float64(ops), "MB")
	}
	if d.sum.totalCPU > 0 {
		m.set("runtime.gc_cpu_pct", 100*d.sum.gcCPU/d.sum.totalCPU, "%")
	}
}

// env is the record printed before every result.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Time       string `json:"time"`
}

func captureEnv(workload string, seed int64, seconds, trace int) env {
	e := env{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		e.Commit = c
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash fingerprints the Go sources under root, so results from a
// checkout without version control still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the fingerprint
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
