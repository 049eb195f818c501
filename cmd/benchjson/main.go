// Command benchjson converts `go test -bench` output into a stable JSON
// document (benchmark name -> ns/op, B/op, allocs/op, plus every custom
// b.ReportMetric column such as ops/s or coldsolves) and optionally
// compares it against a previous document, so CI can upload every run's
// numbers as an artifact and print the perf trajectory against the
// committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkScale -benchmem ./... | \
//	    go run ./cmd/benchjson -out BENCH_scale.json -compare BENCH_scale.json
//
// With -compare, the previous file is read before -out is written, so the
// two flags may name the same path (the local "update the committed
// baseline" workflow).
//
// With -maxregress P (a percentage, e.g. 35), the comparison becomes a
// regression gate: the exit status is non-zero when any benchmark present in
// both documents regressed its ns/op by more than P percent. Shared CI
// runners are noisy, so the threshold is deliberately loose; the CI step
// that invokes it is a hard gate since the clean-run window elapsed (see
// README "Bench regression gate").
//
// When the baseline document's recorded core count differs from this run's,
// both the comparison table and the gate are skipped with a warning: the
// worker-sweep benchmarks collapse to the sequential baseline on small
// runners, so cross-core deltas are machine differences, not a perf
// trajectory. Re-record the baseline on the current runner to re-arm the
// gate (`make bench-scale-json`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's figures. Zero-valued fields were absent from
// the input (e.g. no -benchmem). Metrics keeps every other value/unit column
// the benchmark reported (b.ReportMetric), keyed by unit; the regression gate
// reads ns/op only.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the BENCH_*.json schema. Cores records the recording machine's
// logical CPU count (GOMAXPROCS at conversion time): the worker-sweep
// benchmarks (BenchmarkScaleParallel*) collapse to the sequential baseline on
// single-core runners, so a trajectory entry is only comparable to baselines
// recorded at a similar core count — see the ROADMAP multicore caveat.
type Document struct {
	Schema     string            `json:"schema"`
	Cores      int               `json:"cores,omitempty"`
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// cpuSuffix strips the trailing GOMAXPROCS marker (`-8`) benchmark names
// carry, so documents from machines with different core counts compare.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	compare := flag.String("compare", "", "previous JSON document to diff against (missing file = no comparison)")
	maxRegress := flag.Float64("maxregress", 0, "fail (exit 1) when any ns/op regresses by more than this percentage vs -compare (0 = informational only)")
	note := flag.String("note", "", "free-form annotation recorded in the document (e.g. runner caveats)")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	doc.Cores = runtime.GOMAXPROCS(0)
	doc.Note = *note

	var prev *Document
	if *compare != "" {
		if data, err := os.ReadFile(*compare); err == nil {
			prev = &Document{}
			if err := json.Unmarshal(data, prev); err != nil {
				fatal(fmt.Errorf("parse %s: %w", *compare, err))
			}
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if prev != nil {
		if prev.Cores != 0 && prev.Cores != doc.Cores {
			// Cross-core-count comparisons move the worker-sweep benchmarks
			// for machine reasons alone (see the Document doc comment):
			// deltas against such a baseline are machine noise posing as a
			// perf trajectory, and a hard gate would fail spuriously or mask
			// real regressions. Warn and skip both the comparison table and
			// the gate instead of silently comparing.
			fmt.Fprintf(os.Stderr, "benchjson: baseline recorded on %d cores, this run on %d — comparison and regression gate skipped (re-record the baseline on this runner: make bench-scale-json)\n",
				prev.Cores, doc.Cores)
			return
		}
		printComparison(os.Stdout, prev, doc)
		if *maxRegress > 0 {
			if bad := regressions(prev, doc, *maxRegress); len(bad) > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed ns/op by more than %.0f%%:\n", len(bad), *maxRegress)
				for _, line := range bad {
					fmt.Fprintln(os.Stderr, "  "+line)
				}
				os.Exit(1)
			}
			fmt.Printf("\nregression gate passed: no ns/op regression above %.0f%%\n", *maxRegress)
		}
	}
}

// regressions lists benchmarks present in both documents whose ns/op grew by
// more than maxPct percent, sorted by name.
func regressions(prev, cur *Document, maxPct float64) []string {
	var bad []string
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		or, had := prev.Benchmarks[name]
		if !had || or.NsPerOp <= 0 {
			continue
		}
		nr := cur.Benchmarks[name]
		if pct := 100 * (nr.NsPerOp - or.NsPerOp) / or.NsPerOp; pct > maxPct {
			bad = append(bad, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, or.NsPerOp, nr.NsPerOp, pct))
		}
	}
	return bad
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse extracts `BenchmarkName-N  iters  1234 ns/op [5678 B/op 9 allocs/op]
// [v unit ...]` lines, ignoring everything else (goos/pkg headers, PASS, test
// log output).
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Schema: "overcast-bench/v1", Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp, ok = v, true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		if !ok {
			continue
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		doc.Benchmarks[name] = res
	}
	return doc, sc.Err()
}

// printComparison renders the old-vs-new trajectory, sorted by name, with
// adds/removes called out.
func printComparison(w io.Writer, prev, cur *Document) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-38s %14s %14s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, name := range names {
		nr := cur.Benchmarks[name]
		or, had := prev.Benchmarks[name]
		if !had {
			fmt.Fprintf(w, "%-38s %14s %14.0f %8s %12.0f\n", name, "(new)", nr.NsPerOp, "", nr.AllocsPerOp)
			continue
		}
		delta := "n/a"
		if or.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(nr.NsPerOp-or.NsPerOp)/or.NsPerOp)
		}
		fmt.Fprintf(w, "%-38s %14.0f %14.0f %8s %12.0f\n", name, or.NsPerOp, nr.NsPerOp, delta, nr.AllocsPerOp)
	}
	var absent []string
	for name := range prev.Benchmarks {
		if _, still := cur.Benchmarks[name]; !still {
			absent = append(absent, name)
		}
	}
	sort.Strings(absent)
	for _, name := range absent {
		fmt.Fprintf(w, "%-38s (absent from this run)\n", name)
	}
}
