// Command benchcmp compares two sets of benchmark runs. A set is a directory
// holding the standard output of runs of bench/run.sh, one file per run;
// every metric and bound comes from BENCHMARK.json.
//
//	go run ./cmd/benchcmp [-spec ../BENCHMARK.json] <setA> <setB>
//
// Per workload and metric it prints each side's median and quartiles (the
// quartiles Python's statistics.quantiles gives) and a verdict:
//
//   - WORSE: B's median is worse than A's by more than the metric's bound;
//   - unresolved: a side's spread (quartile distance over median) is wider
//     than the bound, and B's runs do not all read better than A's;
//   - CHANGED: a quality metric or work counter differs between runs of the
//     same seed, which must never happen for the same code, and must be
//     explained when the code changed.
//
// It exits 1 when any metric is WORSE or CHANGED.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactUnits are the units of quality metrics and work counters: the
// workloads are deterministic for a seed, so these repeat bit for bit.
var exactUnits = []string{"rate/demand", "rate", "count", "count/alloc", "ratio", "nodes/repair", "bytes"}

// run is one saved run: the header fields and the final JSON line.
type run struct {
	workload string
	seed     string
	traced   bool
	metrics  map[string]float64
}

func main() {
	specPath := flag.String("spec", "", "BENCHMARK.json (default: the first of ./BENCHMARK.json and ../BENCHMARK.json)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-spec BENCHMARK.json] <setA> <setB>")
		os.Exit(2)
	}
	bad, err := compareSets(*specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

func compareSets(specPath, dirA, dirB string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	return compare(os.Stdout, sp, a, b), nil
}

func loadSpec(path string) (*spec, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var err error
	for _, p := range paths {
		var raw []byte
		if raw, err = os.ReadFile(p); err == nil {
			var sp spec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			return &sp, nil
		}
	}
	return nil, err
}

// loadSet reads every regular file in dir that holds a run's output.
func loadSet(dir string) ([]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := parseRun(f)
		f.Close()
		if errors.Is(err, errNotRun) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no run outputs", dir)
	}
	return runs, nil
}

var errNotRun = errors.New("not a run output")

// parseRun reads one run's output: the "bench: workload=... seed=...
// trace=..." header and the JSON result on the last line.
func parseRun(r io.Reader) (run, error) {
	var out run
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "bench: ") {
			for _, f := range strings.Fields(line) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					out.workload = v
				case "seed":
					out.seed = v
				case "trace":
					out.traced = v == "1"
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if out.workload == "" {
		return out, errNotRun
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return out, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return out, fmt.Errorf("run of %s seed %s was not correct", out.workload, out.seed)
	}
	out.metrics = make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		out.metrics[k] = v.Value
	}
	return out, nil
}

// compare prints the comparison and reports whether any metric is WORSE or
// CHANGED.
func compare(w io.Writer, sp *spec, a, b []run) bool {
	bad := false
	for _, name := range workloads(a, b) {
		for _, traced := range []bool{false, true} {
			metrics := sp.EndToEnd
			if traced {
				metrics = sp.PerLayer
			}
			ra, rb := pick(a, name, traced), pick(b, name, traced)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			kind := "timed"
			if traced {
				kind = "traced"
			}
			fmt.Fprintf(w, "%s, %s runs (A: %d, B: %d)\n", name, kind, len(ra), len(rb))
			fmt.Fprintf(w, "  %-40s %-34s %-34s %9s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
			for _, m := range metrics {
				va, vb := values(ra, m.Name), values(rb, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := verdict(m, ra, rb, va, vb)
				if v == "WORSE" || strings.HasPrefix(v, "CHANGED") {
					bad = true
				}
				change := "-"
				if ma, mb := median(va), median(vb); ma != 0 {
					change = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/math.Abs(ma))
				}
				fmt.Fprintf(w, "  %-40s %-34s %-34s %9s  %s\n", m.Name, summary(va), summary(vb), change, v)
			}
		}
	}
	for _, set := range []struct {
		name string
		runs []run
	}{{"A", a}, {"B", b}} {
		for _, line := range crossClaims(set.runs) {
			fmt.Fprintf(w, "%s: %s\n", set.name, line)
		}
	}
	return bad
}

func verdict(m specMetric, ra, rb []run, va, vb []float64) string {
	if slices.Contains(exactUnits, m.Unit) {
		var seeds []string
		pairs := 0
		for _, x := range ra {
			for _, y := range rb {
				if x.seed == y.seed {
					pairs++
					if x.metrics[m.Name] != y.metrics[m.Name] {
						seeds = append(seeds, x.seed)
					}
				}
			}
		}
		switch {
		case len(seeds) > 0:
			return "CHANGED on seeds " + strings.Join(seeds, ",")
		case pairs == 0:
			return "no seed in common"
		}
		return "exact"
	}
	if m.Better == "" || m.Bound == 0 {
		return ""
	}
	sign := 1.0 // positive when B is worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(va), median(vb)
	if sign*(mb-ma) > m.Bound*math.Abs(ma) {
		return "WORSE"
	}
	if max(spread(va), spread(vb)) > m.Bound {
		worstB, bestA := slices.Max(vb), slices.Min(va)
		if m.Better == "higher" {
			worstB, bestA = slices.Min(vb), slices.Max(va)
		}
		if sign*(worstB-bestA) < 0 {
			return "better (every run)"
		}
		return "unresolved"
	}
	return "ok"
}

// crossClaims checks the layer claims that compare workloads, on a set's
// traced runs.
func crossClaims(runs []run) []string {
	mean := func(workload string, names ...string) (float64, bool) {
		rs := pick(runs, workload, true)
		if len(rs) == 0 {
			return 0, false
		}
		sum := 0.0
		for _, r := range rs {
			for _, n := range names {
				sum += r.metrics[n]
			}
		}
		return sum / float64(len(rs)), true
	}
	holds := map[bool]string{true: "holds", false: "DOES NOT HOLD"}
	var out []string
	if f, ok := mean("flap-arb", "core.warm_frac"); ok {
		if c, ok := mean("churn-arb", "core.warm_frac"); ok {
			out = append(out, fmt.Sprintf("claim flap-arb core.warm_frac %.4g < churn-arb %.4g: %s", f, c, holds[f < c]))
		}
	}
	if ip, ok := mean("churn-ip", "admin.cpu_share", "wire.cpu_share"); ok {
		best, bestName := ip, "churn-ip"
		for _, other := range workloads(runs, nil) {
			if v, ok := mean(other, "admin.cpu_share", "wire.cpu_share"); ok && other != "churn-ip" && v >= best {
				best, bestName = v, other
			}
		}
		out = append(out, fmt.Sprintf("claim churn-ip admin+wire CPU share %.4g is the highest: %s (highest: %s %.4g)",
			ip, holds[bestName == "churn-ip"], bestName, best))
	}
	return out
}

func workloads(a, b []run) []string {
	var names []string
	for _, r := range append(slices.Clone(a), b...) {
		if !slices.Contains(names, r.workload) {
			names = append(names, r.workload)
		}
	}
	sort.Strings(names)
	return names
}

func pick(runs []run, workload string, traced bool) []run {
	var out []run
	for _, r := range runs {
		if r.workload == workload && r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.6g", median(xs))
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs (at least two values) by the
// method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive").
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the quartile distance as a share of the median (0 for fewer
// than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(median(xs))
}
