package overcast_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment on a scaled-down deterministic instance so the
// full suite stays tractable; `cmd/experiments -scale paper` runs the
// full-size versions and prints the same rows/series the paper reports.

import (
	"fmt"
	"sync"
	"testing"

	"overcast/internal/core"
	"overcast/internal/experiments"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/routing"
	"overcast/internal/stats"
)

// benchSettingA is the scaled Sec. III-B environment shared by the
// Table II/IV and Fig. 2-11 benches.
func benchSettingA(b *testing.B) *experiments.SettingA {
	b.Helper()
	a, err := experiments.NewSettingA(7, experiments.SettingAConfig{
		Nodes: 60, SessionSizes: []int{6, 4}, Demand: 100, Capacity: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

var benchRatios = []float64{0.90, 0.95}

func BenchmarkTable2MaxFlow(b *testing.B) {
	a := benchSettingA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.MaxFlowSweep(benchRatios, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2TreeRateCDF(b *testing.B) {
	a := benchSettingA(b)
	_, sols, err := a.MaxFlowSweep(benchRatios, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sol := range sols {
			curves := experiments.RateCDFs(sol)
			if len(curves) == 0 {
				b.Fatal("no curves")
			}
		}
	}
}

func BenchmarkTable4MaxConcurrentFlow(b *testing.B) {
	a := benchSettingA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.MCFSweep([]float64{0.90}, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3MCFTreeRateCDF(b *testing.B) {
	a := benchSettingA(b)
	_, sols, err := a.MCFSweep([]float64{0.90}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := experiments.RateCDFs(sols[0])
		if len(curves) == 0 {
			b.Fatal("no curves")
		}
	}
}

func BenchmarkFig4LinkUtilization(b *testing.B) {
	a := benchSettingA(b)
	_, mfSols, err := a.MaxFlowSweep([]float64{0.95}, false)
	if err != nil {
		b.Fatal(err)
	}
	_, mcfSols, err := a.MCFSweep([]float64{0.90}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.LinkUtilizationCDF(mfSols[0])) == 0 ||
			len(experiments.LinkUtilizationCDF(mcfSols[0])) == 0 {
			b.Fatal("no curves")
		}
	}
}

func benchTreeLimitCfg(arbitrary bool) experiments.TreeLimitConfig {
	return experiments.TreeLimitConfig{
		MaxTrees:  []int{1, 5, 10},
		Mus:       []float64{30},
		Trials:    4,
		BaseRatio: 0.92,
		Arbitrary: arbitrary,
	}
}

func BenchmarkFig5RandomAndOnlineThroughput(b *testing.B) {
	a := benchSettingA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.TreeLimitSweep(benchTreeLimitCfg(false)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TreesUsed(b *testing.B) {
	a := benchSettingA(b)
	res, err := a.TreeLimitSweep(benchTreeLimitCfg(false))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.RenderTreeLimit(res)
		if len(out) == 0 {
			b.Fatal("no render")
		}
	}
}

func BenchmarkTable7ArbitraryRouting(b *testing.B) {
	a := benchSettingA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.MaxFlowSweep([]float64{0.90}, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8MCFArbitraryRouting(b *testing.B) {
	a := benchSettingA(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.MCFSweep([]float64{0.90}, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7to9ArbitraryCDFs(b *testing.B) {
	a := benchSettingA(b)
	_, sols, err := a.MaxFlowSweep([]float64{0.90}, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.RateCDFs(sols[0])) == 0 ||
			len(experiments.LinkUtilizationCDF(sols[0])) == 0 {
			b.Fatal("no curves")
		}
	}
}

func BenchmarkFig10to11OnlineArbitrary(b *testing.B) {
	a := benchSettingA(b)
	cfg := benchTreeLimitCfg(true)
	cfg.MaxTrees = []int{1, 5}
	cfg.Trials = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.TreeLimitSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSettingB is the scaled Sec. VI environment shared by the Fig. 12-19
// benches.
func benchSettingB(b *testing.B) *experiments.SettingB {
	b.Helper()
	sb, err := experiments.NewSettingB(11, experiments.SettingBConfig{ASes: 3, RoutersPerAS: 10, Capacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	return sb
}

func benchGridCfg() experiments.GridConfig {
	return experiments.GridConfig{
		SessionCounts: []int{1, 3},
		SessionSizes:  []int{4, 8},
		Ratio:         0.92,
		Demand:        1,
	}
}

func gridFor(b *testing.B) *experiments.GridResult {
	b.Helper()
	sb := benchSettingB(b)
	res, err := sb.Grid(benchGridCfg())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig12ThroughputSurface(b *testing.B) {
	sb := benchSettingB(b)
	cfg := benchGridCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sb.Grid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Throughput.At(1, 4) <= 0 {
			b.Fatal("empty surface")
		}
	}
}

func BenchmarkFig13EdgesPerNode(b *testing.B) {
	res := gridFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.EdgesPerNode.Render() == "" {
			b.Fatal("no surface")
		}
	}
}

func BenchmarkFig14UtilizationPanels(b *testing.B) {
	res := gridFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range res.Cells {
			if stats.RenderCurve(cell.MFUtilCDF, 16) == "" || stats.RenderCurve(cell.MCFUtilCDF, 16) == "" {
				b.Fatal("missing panel")
			}
		}
	}
}

func BenchmarkFig15MinRateSurface(b *testing.B) {
	res := gridFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.MinRate.Render() == "" {
			b.Fatal("no surface")
		}
	}
}

func BenchmarkFig16ThroughputRatioSurface(b *testing.B) {
	res := gridFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.ThroughputRatio.Render() == "" {
			b.Fatal("no surface")
		}
	}
}

func BenchmarkFig17AsymmetryVsSize(b *testing.B) {
	res := gridFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range res.Cells {
			if cell.Sessions == 1 && len(cell.MFTreeRateCDF) == 0 {
				b.Fatal("missing CDF")
			}
		}
	}
}

func BenchmarkFig18OnlineThroughputRatio(b *testing.B) {
	sb := benchSettingB(b)
	cfg := benchGridCfg()
	cfg.SessionCounts = []int{2}
	cfg.SessionSizes = []int{4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sb.OnlineGrid(cfg, []int{2, 6}, 10, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.ThroughputRatio[6].At(2, 4) <= 0 {
			b.Fatal("empty ratio")
		}
	}
}

func BenchmarkFig19OnlineMinRateRatio(b *testing.B) {
	sb := benchSettingB(b)
	cfg := benchGridCfg()
	cfg.SessionCounts = []int{2}
	cfg.SessionSizes = []int{4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sb.OnlineGrid(cfg, []int{4}, 10, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.MinRateRatio[4].At(2, 4) <= 0 {
			b.Fatal("empty ratio")
		}
	}
}

// --- Scale tier -------------------------------------------------------------
//
// The BenchmarkScale* benchmarks measure the regime the ROADMAP north-star
// cares about: Waxman topologies at 1,000-10,000 nodes with 64-256 competing
// sessions, i.e. the repeated shortest-path / minimum-overlay-spanning-tree
// oracle calls that dominate solver time at scale. Instances are cached per
// configuration so b.N iterations (and sibling benchmarks) share setup. The
// heaviest instances skip under -short so the CI bench smoke (-benchtime 1x
// -short) stays fast.

var (
	scaleMu    sync.Mutex
	scaleCache = map[string]*experiments.ScaleInstance{}
)

func scaleInstance(b *testing.B, cfg experiments.ScaleConfig) *experiments.ScaleInstance {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	key := cfg.Name()
	if si, ok := scaleCache[key]; ok {
		return si
	}
	si, err := experiments.NewScaleInstance(9000, cfg)
	if err != nil {
		b.Fatal(err)
	}
	scaleCache[key] = si
	return si
}

// BenchmarkScaleMCFFixed is the acceptance benchmark of the CSR+scratch
// refactor: MaxConcurrentFlow on a 1,000-node Waxman topology with 64
// competing sessions under fixed IP routing.
func BenchmarkScaleMCFFixed(b *testing.B) {
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 1000, Sessions: 64, SessionSize: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := si.MCF(0.25)
		if err != nil {
			b.Fatal(err)
		}
		if res.Lambda <= 0 {
			b.Fatalf("lambda %v", res.Lambda)
		}
	}
}

// BenchmarkScaleMaxFlowFixed runs the M1 FPTAS on the same 1,000x64 instance.
func BenchmarkScaleMaxFlowFixed(b *testing.B) {
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 1000, Sessions: 64, SessionSize: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := si.MaxFlow(0.25)
		if err != nil {
			b.Fatal(err)
		}
		if sol.OverallThroughput() <= 0 {
			b.Fatal("zero throughput")
		}
	}
}

// BenchmarkScaleMCFArbitrary exercises the dynamic-routing oracle (one
// Dijkstra per member per MinTree call) at 1,000 nodes and 64 sessions.
func BenchmarkScaleMCFArbitrary(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scale benchmark skipped in -short mode")
	}
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 1000, Sessions: 64, SessionSize: 5, Arbitrary: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := si.MCF(0.3)
		if err != nil {
			b.Fatal(err)
		}
		if res.Lambda <= 0 {
			b.Fatalf("lambda %v", res.Lambda)
		}
	}
}

// BenchmarkScaleMaxFlowFixedLarge pushes the fixed-routing solver to 2,000
// nodes and 128 sessions.
func BenchmarkScaleMaxFlowFixedLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scale benchmark skipped in -short mode")
	}
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 2000, Sessions: 128, SessionSize: 6})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := si.MaxFlow(0.3)
		if err != nil {
			b.Fatal(err)
		}
		if sol.OverallThroughput() <= 0 {
			b.Fatal("zero throughput")
		}
	}
}

// BenchmarkScaleMOSTFixed isolates one fixed-routing oracle call (the MCF
// inner loop body) on a 2,000-node, 64-member-pool instance.
func BenchmarkScaleMOSTFixed(b *testing.B) {
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 2000, Sessions: 64, SessionSize: 8})
	d := graph.NewLengths(si.Net.Graph, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := si.Problem.Oracles[i%len(si.Problem.Oracles)].MinTree(d)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Pairs) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkScaleMOSTArbitrary isolates one dynamic-routing oracle call
// (session-size Dijkstras plus Prim) on the same 2,000-node instance.
func BenchmarkScaleMOSTArbitrary(b *testing.B) {
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 2000, Sessions: 64, SessionSize: 8, Arbitrary: true})
	d := graph.NewLengths(si.Net.Graph, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := si.Problem.Oracles[i%len(si.Problem.Oracles)].MinTree(d)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Pairs) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// benchScaleScenario solves MCF on a 1,000-node grid-Waxman instance of one
// named workload scenario (heterogeneous capacities/demands, session-size
// mixes; see internal/workload).
func benchScaleScenario(b *testing.B, scenario string) {
	b.Helper()
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 1000, Sessions: 32, Scenario: scenario})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := si.MCF(0.3)
		if err != nil {
			b.Fatal(err)
		}
		if res.Lambda <= 0 {
			b.Fatalf("lambda %v", res.Lambda)
		}
	}
}

// BenchmarkScaleScenarioUniform is the scenario-tier baseline: same
// distributions as the paper (uniform capacity 100), but generated via the
// grid Waxman sampler.
func BenchmarkScaleScenarioUniform(b *testing.B) { benchScaleScenario(b, "uniform") }

// BenchmarkScaleScenarioHeavytail stresses heterogeneous capacity: Pareto
// link capacities and lognormal demands.
func BenchmarkScaleScenarioHeavytail(b *testing.B) { benchScaleScenario(b, "heavytail") }

// BenchmarkScaleScenarioCDN is the session-mix scenario: bimodal session
// sizes with Zipf node popularity over a very heavy capacity tail.
func BenchmarkScaleScenarioCDN(b *testing.B) { benchScaleScenario(b, "cdn") }

// BenchmarkScaleScenarioLivestream has few huge multicast groups — the
// heaviest oracle regime — so it skips under -short.
func BenchmarkScaleScenarioLivestream(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scale benchmark skipped in -short mode")
	}
	benchScaleScenario(b, "livestream")
}

// BenchmarkScaleDijkstra isolates the shortest-path primitive on a
// 10,000-node topology (the largest tier instance).
func BenchmarkScaleDijkstra(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scale benchmark skipped in -short mode")
	}
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: 10000, Sessions: 1, SessionSize: 4})
	d := si.Net.LinkDelays()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist, _ := routing.ShortestPaths(si.Net.Graph, i%si.Net.Graph.NumNodes(), d)
		if len(dist) != si.Net.Graph.NumNodes() {
			b.Fatal("bad dist")
		}
	}
}

// BenchmarkTreePacking covers the Fig. 1 packing-spanning-trees subproblem
// via the public MaxFlow path on a complete session (the K4 strength-2
// instance).
func BenchmarkTreePacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := newK4()
		if err != nil {
			b.Fatal(err)
		}
		sys, err := newK4System(net)
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := sys.MaxFlow(0.95)
		if err != nil {
			b.Fatal(err)
		}
		if alloc.SessionRate(0) < 18 {
			b.Fatalf("K4 packing rate %v", alloc.SessionRate(0))
		}
	}
}

// --- Parallel phase-loop sweeps ---------------------------------------------
//
// The BenchmarkScaleParallel* benches sweep the solver worker-pool size over
// fixed instances, measuring how the batched MCF phase loop scales with
// workers. Outputs are bit-identical across the sweep (the determinism gate
// pins this), so the ns/op trajectory in BENCH_scale.json is a pure
// wall-clock comparison: workers=1 is the batched loop run on a single
// worker (the round structure is identical, only the fan-out width changes;
// it is NOT the pre-batching strictly sequential algorithm, whose outputs
// differ — see MaxConcurrentFlow's doc), workers=8 the fan-out. Real
// scaling needs real cores — on a single-CPU runner (GOMAXPROCS=1) all
// worker counts collapse to roughly the single-worker time, which the
// README "Parallel solver" section documents.

var benchWorkerCounts = []int{1, 2, 8}

func benchScaleParallelMCF(b *testing.B, scenario string, nodes, sessions, workers int) {
	b.Helper()
	si := scaleInstance(b, experiments.ScaleConfig{Nodes: nodes, Sessions: sessions, Scenario: scenario})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.MaxConcurrentFlow(si.Problem, core.MaxConcurrentFlowOptions{
			Epsilon: 0.3, SolverOptions: core.SolverOptions{Workers: workers},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Lambda <= 0 {
			b.Fatalf("lambda %v", res.Lambda)
		}
	}
}

// BenchmarkScaleParallelMCFUniform sweeps workers over the 2,000-node
// uniform scenario (64 sessions).
func BenchmarkScaleParallelMCFUniform(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchScaleParallelMCF(b, "uniform", 2000, 64, w)
		})
	}
}

// BenchmarkScaleParallelMCFHeavytail10k sweeps workers over the 10,000-node
// heavytail scenario with 256 competing sessions — the acceptance instance
// for the batched phase loop (the largest tier configuration).
func BenchmarkScaleParallelMCFHeavytail10k(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchScaleParallelMCF(b, "heavytail", 10000, 256, w)
		})
	}
}

// BenchmarkScaleZipfHotPlane measures the round-level shared SSSP plane on
// the workloads it was built for: Zipf-hot arbitrary-routing scenarios where
// many sessions share popular member nodes, so a MaxFlow iteration's batch
// re-runs the same per-member Dijkstras once per session without the plane
// and once per *distinct* member with it. The plane on/off pairs solve the
// identical instance to bit-identical outputs (the determinism gate pins
// this), so the ns/op ratio is a pure measure of the dedup win — the
// acceptance threshold for this tier is plane-off >= 1.5x plane-on on both
// scenarios, and the effect is algorithmic (fewer Dijkstras), so it shows on
// any core count. MaxFlow is benchmarked rather than MCF because its batch
// evaluates every session each iteration — the maximal-sharing regime; the
// instance is sized (200 nodes, 48 sessions) so the four sub-benchmarks stay
// affordable for CI's 1-iteration trajectory run, which is why this tier
// does NOT skip under -short.
func BenchmarkScaleZipfHotPlane(b *testing.B) {
	for _, scenario := range []string{"cdn", "livestream"} {
		for _, plane := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/plane=%v", scenario, plane), func(b *testing.B) {
				si := scaleInstance(b, experiments.ScaleConfig{Nodes: 200, Sessions: 48, Scenario: scenario, Arbitrary: true})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts := core.MaxFlowOptions{Epsilon: 0.35}
					if !plane {
						opts.Plane = overlay.PlaneOff
					}
					sol, err := core.MaxFlow(si.Problem, opts)
					if err != nil {
						b.Fatal(err)
					}
					if sol.OverallThroughput() <= 0 {
						b.Fatal("zero throughput")
					}
					if plane && sol.Plane.Sources == 0 {
						b.Fatal("plane never fired")
					}
				}
			})
		}
	}
}

// BenchmarkScaleChurnReplay measures the scenario-driven online/churn
// harness end to end (trace generation, parallel oracle prefabrication,
// sequential replay) on a 2,000-node cdn instance.
func BenchmarkScaleChurnReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ChurnRun(9000, experiments.ChurnConfig{Nodes: 2000, Scenario: "cdn"})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Sessions == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkChurnWarmStart is the acceptance benchmark of the Allocator v2
// warm-start incremental re-solve: the same churn trace replayed with a
// per-event Snapshot cadence, once warm-started and once with every refresh
// forced cold (RepairPhaseBudget=-1 via ColdBaseline). Both replays produce
// the same number of ε-feasible allocations from the same trace, so the
// cold/warm ns/op ratio in BENCH_scale.json IS the steady-state
// allocations/sec speedup — the acceptance threshold is warm >= 2x cold
// (measured 2.5-3.1x), with the mean per-snapshot throughput inside the
// (1+ε) FPTAS band of the cold baseline's (cmd/experiments warmchurn prints
// both numbers). The effect is algorithmic (a refresh repairs only the
// churned demand share instead of re-solving for the whole population), so
// it shows on any core count.
func BenchmarkChurnWarmStart(b *testing.B) {
	for _, mode := range []string{"warm", "cold"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.WarmChurnRun(2004, experiments.WarmChurnConfig{
					Nodes: 120, ColdBaseline: mode == "cold",
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Snapshots == 0 {
					b.Fatal("no snapshots")
				}
				if mode == "warm" && rep.WarmRefreshes == 0 {
					b.Fatal("warm path never fired")
				}
				if mode == "cold" && rep.WarmRefreshes != 0 {
					b.Fatal("cold baseline took the warm path")
				}
			}
		})
	}
}

// BenchmarkDaemonChurn measures the overcastd admin path end to end: an
// in-process admin server on a unix socket, a 4-connection synthetic client
// fleet replaying a churn trace through the wire protocol (joins, leaves,
// cached and refreshing snapshot reads), then a graceful drain. The metric
// that matters is the sustained admin ops/sec reported as ops/s — the
// daemon's serialized-mutation lock plus JSON codec plus socket round-trip
// on top of the warm allocator path BenchmarkChurnWarmStart isolates.
func BenchmarkDaemonChurn(b *testing.B) {
	b.ReportAllocs()
	var ops float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.DaemonChurnRun(2004, experiments.DaemonChurnConfig{Nodes: 120})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Joins == 0 || rep.Leaves == 0 {
			b.Fatalf("degenerate replay: %+v", rep)
		}
		ops += rep.OpsPerSec
	}
	b.ReportMetric(ops/float64(b.N), "ops/s")
}

// BenchmarkFaultChurn is the robustness acceptance pair: the same churn
// trace interleaved with a hard-oscillating link flap trace, replayed
// through the public Fault surface raw and through the route-flap damper.
// Each effective fault latches the next refresh onto the cold path, so the
// coldsolves metric is the repair bill the flaps extract — the damped row
// must pay no more of it than the undamped row (the suppression bound the
// README documents), and the suppressed metric shows the damper actually
// held recoveries rather than passing the trace through.
func BenchmarkFaultChurn(b *testing.B) {
	cfg := experiments.FaultChurnConfig{
		Nodes: 64, ArrivalRate: 1.5, MeanLifetime: 5, Horizon: 10,
		FaultEdges: 6, FailRate: 3, MeanRepair: 0.2,
	}
	for _, mode := range []string{"undamped", "damped"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var cold, suppressed, events float64
			for i := 0; i < b.N; i++ {
				run := cfg
				run.Damped = mode == "damped"
				rep, err := experiments.FaultChurnRun(2004, run)
				if err != nil {
					b.Fatal(err)
				}
				if rep.TraceFaults == 0 || rep.Snapshots == 0 || rep.Throughput <= 0 {
					b.Fatalf("degenerate replay: %+v", rep)
				}
				if mode == "undamped" && rep.UnderlayEvents == 0 {
					b.Fatal("undamped replay applied no effective fault events")
				}
				if mode == "damped" && rep.Suppressed == 0 {
					b.Fatal("damper suppressed nothing under a hard oscillation")
				}
				cold += float64(rep.ColdSolves)
				suppressed += float64(rep.Suppressed)
				events += float64(rep.UnderlayEvents)
			}
			b.ReportMetric(cold/float64(b.N), "coldsolves")
			b.ReportMetric(suppressed/float64(b.N), "suppressed")
			b.ReportMetric(events/float64(b.N), "events")
		})
	}
}

// --- Cross-round repair sweeps ----------------------------------------------
//
// The BenchmarkScalePlaneRepair* benches measure the length-ledger-driven
// cross-round dirty-source repair: the solve-scoped plane keeps its SSSP
// rows alive between batches and refills only sources whose read paths
// intersect the edges the ledger journaled since the row was filled. The
// subtree/full pairs solve identical instances to bit-identical outputs
// (the determinism gate pins this), so the ns/op ratio is a pure measure of
// the Dijkstra work subtree repair avoids over whole-row refills; the effect
// is algorithmic, so it shows on any core count. Plane-off comparisons live
// in BenchmarkScaleZipfHotPlane.

// planeRepairModes are the persistent-plane modes the repair sweeps compare,
// by sub-benchmark name.
var planeRepairModes = []string{"subtree", "full"}

// benchPlaneRepair runs one scenario at one plane mode: "full" (dirty rows
// refill whole) or "subtree" (dirty rows resume Dijkstra over the dirty
// subtrees when the exactness + scale-separation certificate holds). Both
// modes solve bit-identical outputs, so the ns/op ratio isolates the avoided
// work.
func benchPlaneRepair(b *testing.B, scenario string, degree int, mode string) {
	b.Helper()
	si := scaleInstance(b, experiments.ScaleConfig{
		Nodes: 200, Sessions: 48, Degree: degree, Scenario: scenario, Arbitrary: true,
	})
	opts := core.MaxFlowOptions{Epsilon: 0.35}
	if err := opts.Plane.Set(mode); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.MaxFlow(si.Problem, opts)
		if err != nil {
			b.Fatal(err)
		}
		if sol.OverallThroughput() <= 0 {
			b.Fatal("zero throughput")
		}
		if sol.Plane.Skipped == 0 {
			b.Fatal("repair never skipped a refill")
		}
		if subtree := sol.Plane.SubtreeRepaired; (opts.Plane == overlay.PlaneSubtree) != (subtree > 0) {
			b.Fatalf("plane=%v: %d subtree repairs (%+v)", opts.Plane, subtree, sol.Plane)
		}
	}
}

// BenchmarkScalePlaneRepairCDN sweeps subtree vs full-refill repair over the
// Zipf-hot cdn mix (48 arbitrary-routing sessions, degree-4 fabric) — the
// acceptance instance for dirty-source repair. Degree 4 because the skip
// probability decays like exp(-touched x read-path edges / |E|): the denser
// fabric shortens member paths and grows |E|, which is exactly the regime
// row-granular repair targets.
func BenchmarkScalePlaneRepairCDN(b *testing.B) {
	for _, mode := range planeRepairModes {
		b.Run("repair="+mode, func(b *testing.B) {
			benchPlaneRepair(b, "cdn", 4, mode)
		})
	}
}

// BenchmarkScalePlaneRepairLivestream sweeps both repair modes over the
// livestream mix: huge sessions whose member paths blanket the topology, the
// documented worst case for *row-granular* repair — nearly every row has a
// dirty read path, so mode "full" refills almost everything. Subtree repair
// is built to break exactly this floor: a dirty read path usually means a
// few touched tree edges whose subtrees cover a small fraction of the row,
// so "subtree" resettles that fraction instead of the whole row.
func BenchmarkScalePlaneRepairLivestream(b *testing.B) {
	for _, mode := range planeRepairModes {
		b.Run("repair="+mode, func(b *testing.B) {
			benchPlaneRepair(b, "livestream", 3, mode)
		})
	}
}

// BenchmarkScalePlaneRepairMCF10k runs the 10,000-node arbitrary-routing
// MCF in both repair modes: the batched beta prestep shares one seed plane
// across its same-delta subproblems (PrestepPlane.Seeded rows copied
// instead of Dijkstra'd) and every subproblem plus the phase loop repairs
// across rounds (Skipped). The heaviest tier configuration, so
// it skips under -short like the other 10k benches; run it via
// `make bench-scale` without BENCHFLAGS overrides.
func BenchmarkScalePlaneRepairMCF10k(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scale benchmark skipped in -short mode")
	}
	for _, mode := range planeRepairModes {
		b.Run("repair="+mode, func(b *testing.B) {
			si := scaleInstance(b, experiments.ScaleConfig{
				Nodes: 10000, Sessions: 8, Degree: 3, Scenario: "cdn", Arbitrary: true,
			})
			opts := core.MaxConcurrentFlowOptions{Epsilon: 0.5}
			if err := opts.Plane.Set(mode); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.MaxConcurrentFlow(si.Problem, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Lambda <= 0 {
					b.Fatalf("lambda %v", res.Lambda)
				}
				if res.PrestepPlane.Seeded == 0 || res.PrestepPlane.Skipped == 0 {
					b.Fatalf("prestep seeding/repair never fired: %+v", res.PrestepPlane)
				}
			}
		})
	}
}
