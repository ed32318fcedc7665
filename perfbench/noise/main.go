// Command noise summarises and compares benchmark results without any
// external tool.
//
//	go -C perfbench run ./noise report [-bench ../BENCHMARK.json] results.jsonl...
//	go -C perfbench run ./noise compare [-bench ../BENCHMARK.json] parent.jsonl change.jsonl
//
// A results file is the concatenated standard output of benchmark runs
// (see repeat.sh): each run prints an "env" line naming its workload and
// trace mode, then its result line.
//
// report prints, per workload and metric, the sample count, median,
// quartiles (Python's statistics.quantiles(n=4)) and the spread: the
// interquartile range as a share of the median. An end-to-end metric
// whose spread exceeds its bound is "unresolved": the benchmark cannot
// tell a change of that size from noise.
//
// compare pairs the i-th run of the parent with the i-th run of the
// change, per workload, and applies the acceptance rule: a metric
// improved when the change wins at least 9 of 10 pairs (ties count for
// neither) and the medians differ by more than the parent's
// interquartile range; it regressed when the change's median is worse
// than the parent's by more than the bound; with a spread wider than the
// bound it is unresolved unless every change run beats every parent run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Env *struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		Seed     int64  `json:"seed"`
	} `json:"env"`
	Correct *bool             `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

// run is one result tagged with its workload.
type run struct {
	workload string
	trace    int
	correct  bool
	metrics  map[string]metric
}

// group keys results by workload and trace mode.
type group struct {
	workload string
	trace    int
}

func readRuns(r io.Reader) ([]run, error) {
	var out []run
	var cur *run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if json.Unmarshal(sc.Bytes(), &l) != nil {
			continue // build output and other chatter
		}
		switch {
		case l.Env != nil:
			cur = &run{workload: l.Env.Workload, trace: l.Env.Trace}
		case l.Correct != nil && cur != nil:
			cur.correct = *l.Correct
			cur.metrics = l.Metrics
			out = append(out, *cur)
			cur = nil
		}
	}
	return out, sc.Err()
}

func readFiles(paths []string) (map[group][]run, []group, error) {
	byGroup := map[group][]run{}
	var order []group
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, nil, err
		}
		runs, err := readRuns(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range runs {
			g := group{r.workload, r.trace}
			if _, ok := byGroup[g]; !ok {
				order = append(order, g)
			}
			byGroup[g] = append(byGroup[g], r)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].trace < order[j].trace
	})
	return byGroup, order, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) and statistics.median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func values(runs []run, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func defsFor(b *benchDef, trace int) []metricDef {
	if trace == 1 {
		return b.PerLayer
	}
	return b.EndToEnd
}

func report(w io.Writer, b *benchDef, paths []string) error {
	byGroup, order, err := readFiles(paths)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	defer tw.Flush()
	for _, g := range order {
		runs := byGroup[g]
		bad := 0
		for _, r := range runs {
			if !r.correct {
				bad++
			}
		}
		fmt.Fprintf(tw, "%s trace=%d: %d runs, %d incorrect\t\t\t\t\t\t\t\n", g.workload, g.trace, len(runs), bad)
		fmt.Fprintln(tw, "metric\tn\tmedian\tq1\tq3\tspread\tbound\tstatus\t")
		for _, d := range defsFor(b, g.trace) {
			xs := values(runs, d.Name)
			q1, med, q3 := quartiles(xs)
			sp := spread(xs)
			bound, status := "-", ""
			if d.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", 100**d.Bound)
				switch {
				case sp > *d.Bound:
					status = "unresolved"
				case sp > *d.Bound/3:
					status = "within bound"
				default:
					status = "steady"
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\t%s\t%s\t\n", d.Name, len(xs), med, q1, q3, 100*sp, bound, status)
		}
		fmt.Fprintln(tw, "\t\t\t\t\t\t\t\t")
	}
	return nil
}

// better reports whether a reads better than b for the metric.
func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// pairWins counts the pairs (run i of each side) the change wins.
func pairWins(d metricDef, parent, change []float64) (wins, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(d, change[i], parent[i]) {
			wins++
		}
	}
	return wins, pairs
}

// verdict applies the acceptance rule to one metric's paired runs.
func verdict(d metricDef, parent, change []float64) string {
	wins, n := pairWins(d, parent, change)
	if n == 0 {
		return "no data"
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	if n >= 10 && float64(wins) >= 0.9*float64(n) && math.Abs(cmed-pmed) > pq3-pq1 {
		return "improved"
	}
	if d.Bound == nil {
		return "no bound"
	}
	bound := *d.Bound
	worse := (cmed - pmed) / math.Abs(pmed)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	if spread(parent) > bound || spread(change) > bound {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				if !better(d, c, p) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "improved (every run)"
		}
		return "unresolved"
	}
	if n < 10 {
		return "unchanged (fewer than 10 pairs)"
	}
	return "unchanged"
}

func compare(w io.Writer, b *benchDef, parentPath, changePath string) error {
	parent, order, err := readFiles([]string{parentPath})
	if err != nil {
		return err
	}
	change, _, err := readFiles([]string{changePath})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	defer tw.Flush()
	for _, g := range order {
		p, c := parent[g], change[g]
		fmt.Fprintf(tw, "%s trace=%d: %d parent runs, %d change runs\t\t\t\t\t\t\n", g.workload, g.trace, len(p), len(c))
		fmt.Fprintln(tw, "metric\tparent median\tparent IQR\tchange median\tdelta\twins\tverdict\t")
		for _, d := range defsFor(b, g.trace) {
			pv, cv := values(p, d.Name), values(c, d.Name)
			pq1, pmed, pq3 := quartiles(pv)
			_, cmed, _ := quartiles(cv)
			wins, n := pairWins(d, pv, cv)
			delta := math.NaN()
			if pmed != 0 {
				delta = 100 * (cmed - pmed) / math.Abs(pmed)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%+.2f%%\t%d/%d\t%s\t\n", d.Name, pmed, pq3-pq1, cmed, delta, wins, n, verdict(d, pv, cv))
		}
		fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: noise report|compare [-bench BENCHMARK.json] files...")
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	benchPath := fs.String("bench", "../BENCHMARK.json", "benchmark definition (metric bounds and directions)")
	_ = fs.Parse(os.Args[2:]) // ExitOnError: Parse exits on a bad flag
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noise:", err)
		os.Exit(1)
	}
	var b benchDef
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintf(os.Stderr, "noise: %s: %v\n", *benchPath, err)
		os.Exit(1)
	}
	switch {
	case cmd == "report" && fs.NArg() > 0:
		err = report(os.Stdout, &b, fs.Args())
	case cmd == "compare" && fs.NArg() == 2:
		err = compare(os.Stdout, &b, fs.Arg(0), fs.Arg(1))
	default:
		fmt.Fprintln(os.Stderr, "usage: noise report|compare [-bench BENCHMARK.json] files...")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noise:", err)
		os.Exit(1)
	}
}
