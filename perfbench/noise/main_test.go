package main

import (
	"strings"
	"testing"
)

// Reference values from Python: statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: &bound}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	cases := []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"faster", lower, steady, shift(steady, -5), "improved"},
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, shift(steady, 20), "regressed"},
		{"throughput up", higher, steady, shift(steady, 5), "improved"},
		{"throughput down", higher, steady, shift(steady, -20), "regressed"},
		{"noisy", lower, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, steady, "unresolved"},
		{"few pairs", lower, steady[:3], steady[:3], "unchanged (fewer than 10 pairs)"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestReadRunsPairsEnvWithResult(t *testing.T) {
	in := `go: building
{"env":{"workload":"plan-tpcc","trace":0,"seed":1}}
{"correct":true,"attempted":4,"failed":0,"metrics":{"p50_ms":{"value":3.5,"unit":"ms"}}}
{"env":{"workload":"oltp-tpcc","trace":1,"seed":2}}
{"correct":false,"attempted":9,"failed":1,"metrics":{}}
`
	runs, err := readRuns(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].workload != "plan-tpcc" || runs[0].metrics["p50_ms"].Value != 3.5 ||
		runs[1].workload != "oltp-tpcc" || runs[1].trace != 1 || runs[1].correct {
		t.Errorf("readRuns = %+v", runs)
	}
}
