package main

import (
	"strings"
	"testing"
)

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q      [3]float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}, 2},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}, 3},
	} {
		if q := quartiles(c.xs); q != c.q {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.q)
		}
		if m := median(c.xs); m != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.median)
		}
	}
}

func TestVerdict(t *testing.T) {
	runs := func(vals ...float64) ([]run, []float64) {
		var rs []run
		for i, v := range vals {
			rs = append(rs, run{seed: string(rune('a' + i)), metrics: map[string]float64{"m": v}})
		}
		return rs, vals
	}
	latency := specMetric{Name: "m", Unit: "ms", Better: "lower", Bound: 0.1}
	rate := specMetric{Name: "m", Unit: "1/s", Better: "higher", Bound: 0.1}
	quality := specMetric{Name: "m", Unit: "rate", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"steady", latency, []float64{100, 101, 99, 100}, []float64{102, 101, 103, 102}, "ok"},
		{"slower", latency, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, "WORSE"},
		{"slower rate", rate, []float64{10, 10, 10, 10}, []float64{8, 8, 8, 8}, "WORSE"},
		{"noisy", latency, []float64{50, 100, 150, 100}, []float64{100, 100, 100, 100}, "unresolved"},
		{"noisy but better", latency, []float64{150, 200, 250, 200}, []float64{100, 101, 102, 100}, "better (every run)"},
		{"quality same", quality, []float64{3, 4}, []float64{3, 4}, "exact"},
		{"quality moved", quality, []float64{3, 4}, []float64{3, 4.5}, "CHANGED on seeds b"},
	} {
		ra, va := runs(c.a...)
		rb, vb := runs(c.b...)
		if got := verdict(c.m, ra, rb, va, vb); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "bench: workload=churn-ip seed=7 trace=1 seconds=25\n  alloc_p50_ms 1 ms\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"x":{"value":1.5,"unit":"ms"}}}` + "\n"
	r, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if r.workload != "churn-ip" || r.seed != "7" || !r.traced || r.metrics["x"] != 1.5 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := parseRun(strings.NewReader("notes\n")); err != errNotRun {
		t.Errorf("a file without a header: %v, want errNotRun", err)
	}
	bad := strings.Replace(out, `"correct":true`, `"correct":false`, 1)
	if _, err := parseRun(strings.NewReader(bad)); err == nil {
		t.Error("an incorrect run was accepted")
	}
}
