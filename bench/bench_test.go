package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		n, p      float64
		v         float64
		above     int
		supported bool
	}{
		{n: 100, p: 0.5, v: 50, above: 50, supported: true},
		{n: 100, p: 0.9, v: 90, above: 10, supported: true},
		{n: 99, p: 0.9, v: 90, above: 9, supported: false},
		{n: 1, p: 0.9, v: 1, above: 0, supported: false},
		{n: 10, p: 0.5, v: 5, above: 5, supported: false},
	} {
		v, above := nearestRank(samples(int(c.n)), c.p)
		if v != c.v || above != c.above {
			t.Errorf("n=%v p=%v: got %v with %d above, want %v with %d", c.n, c.p, v, above, c.v, c.above)
		}
		var rep report
		if err := rep.addPercentiles("x", samples(int(c.n)), true); err != nil {
			t.Fatal(err)
		}
		p90 := rep.metrics[1]
		if got := !strings.Contains(p90.note, "UNSUPPORTED"); c.p == 0.9 && got != c.supported {
			t.Errorf("n=%v: p90 note %q, supported=%v", c.n, p90.note, c.supported)
		}
	}
	if v, _ := nearestRank(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty sample: got %v, want NaN", v)
	}
	var rep report
	if err := rep.addPercentiles("x", nil, true); err == nil {
		t.Error("addPercentiles accepted an empty sample")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"overcast/internal/graph.(*IndexedHeap).less", "overcast/internal/routing.(*DijkstraScratch).ShortestPathsInto"}, "graph"},
		{[]string{"sort.insertionSort", "overcast/internal/overlay.(*pairRouteSort).Less", "overcast/internal/core.(*Warm).cold"}, "overlay"},
		{[]string{"strconv.ryuFtoaShortest", "encoding/json.floatEncoder.encode", "overcast/internal/admin.EncodeFrame"}, "wire"},
		{[]string{"runtime.mallocgc", "overcast/internal/core.(*Warm).addRaw"}, "runtime"},
		{[]string{"overcast.(*Allocator).Snapshot", "overcast/internal/admin.(*Server).dispatch"}, "root"},
		{[]string{"slices.SortFunc[go.shape.struct { overcast/internal/graph.Edge }]", "main.replay"}, "bench"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, "bench"},
		{[]string{"internal/poll.(*FD).Write", "net.(*conn).Write"}, "wire"},
		{[]string{"internal/chacha8rand.block", "os/signal.loop"}, otherLayer},
		{nil, otherLayer},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
	for fn, want := range map[string]string{
		"overcast/internal/routing.(*DijkstraScratch).ShortestPathsInto": "overcast/internal/routing",
		"overcast.(*Allocator).Join":                                     "overcast",
		"main.(*reader).loop.func1":                                      "main",
		"type:.eq.overcast/internal/graph.Edge":                          "type:.eq.overcast/internal/graph",
		"slices.pdqsortCmpFunc[go.shape.int]":                            "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const traces = `File: bench
Type: cpu
Duration: 1s, Total samples = 80ms (8.00%)
-----------+-------------------------------------------------------
      30ms   overcast/internal/graph.(*IndexedHeap).less (inline)
             overcast/internal/routing.(*DijkstraScratch).ShortestPathsInto
             overcast/internal/overlay.(*Plane).FillRow
             overcast/internal/overlay.(*BatchRunner).fillJob
             overcast/internal/overlay.NewBatchRunnerOpts.func1
-----------+-------------------------------------------------------
      20ms   overcast/internal/overlay.(*BatchRunner).stagePlane.func2
             overcast/internal/overlay.(*BatchRunner).stagePlane
             overcast/internal/admin.(*Server).dispatch
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   internal/chacha8rand.block
-----------+-------------------------------------------------------
`
	p, err := parseTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"graph": 30 * time.Millisecond, "overlay": 20 * time.Millisecond,
		"runtime": 20 * time.Millisecond, otherLayer: 10 * time.Millisecond}
	if p.total != 80*time.Millisecond || len(p.layer) != len(want) {
		t.Fatalf("total %v, layers %v; want 80ms over %v", p.total, p.layer, want)
	}
	for l, d := range want {
		if p.layer[l] != d {
			t.Errorf("layer %s: %v, want %v", l, p.layer[l], d)
		}
	}
	for metric, d := range map[string]time.Duration{
		"overlay.plane_stage_ms_per_alloc": 50 * time.Millisecond, // fillJob + stagePlane closure
		"routing.dijkstra_ms_per_alloc":    30 * time.Millisecond,
		"admin.dispatch_ms_per_op":         20 * time.Millisecond,
	} {
		if p.entry[metric] != d {
			t.Errorf("entry %s: %v, want %v", metric, p.entry[metric], d)
		}
	}
	if _, ok := p.entry["routing.subtree_repair_ms_per_alloc"]; ok {
		t.Error("an entry point never sampled is not absent")
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n  10zz   main.main\n")); err == nil {
		t.Error("malformed sample value accepted")
	}
}

// tiny shrinks a workload to a smoke-test size that keeps its shape.
func tiny(w workload) workload {
	w.nodes = min(w.nodes, 30)
	w.window, w.prefix = 4, 3
	return w
}

// TestSmoke runs every workload, timed, at a tiny size, and one traced, and
// checks each run is correct and reports exactly BENCHMARK.json's metrics.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(rep *report, want []metricSpec) {
		t.Helper()
		if !rep.correct() {
			t.Errorf("%s: %d failed: %v", rep.header, rep.failed, rep.violations)
		}
		var got, names []string
		for _, m := range rep.metrics {
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range want {
			names = append(names, m.Name+" "+m.Unit)
		}
		slices.Sort(got)
		slices.Sort(names)
		if !slices.Equal(got, names) {
			t.Errorf("%s: metrics\n%q\nwant BENCHMARK.json's\n%q", rep.header, got, names)
		}
		if err := rep.write(io.Discard); err != nil {
			t.Error(err)
		}
	}
	dir := t.TempDir()
	// Long enough for one interlude in each timed run.
	o := options{seconds: interludeEvery + 100*time.Millisecond, sockDir: dir, outDir: dir, setups: 3, kernels: 2}
	for _, w := range workloads {
		rep, err := run(tiny(w), defaultSeed, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(rep, spec.EndToEnd)
	}
	o.traced = true
	rep, err := run(tiny(workloads[1]), defaultSeed, o)
	if err != nil {
		t.Fatal(err)
	}
	check(rep, spec.PerLayer)
}
