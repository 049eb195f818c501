// Command experiments regenerates the paper's tables and figures, plus the
// large-instance scale tier.
//
// Usage:
//
//	experiments [-scale small|paper|large] [-seed N] [-trials N] [-maxpts N]
//	            [-nodes N -sessions K -sessionsize S] [-scenario names]
//	            [-workers W] [-plane subtree|off] [exp ...]
//
// where each exp is one of table2, fig2, table4, fig3, fig4, fig5, fig6,
// table7, fig7, table8, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
// fig15, fig16, fig17, fig18, fig19, scale, churn, warmchurn, daemonchurn,
// faultchurn, report, or "all". With no
// arguments the Setting-A experiments (table2..fig11) run; with -scale
// large the scale tier runs.
//
// -workers sets the solvers' oracle worker-pool size (0 = GOMAXPROCS,
// except in the Setting A/B sweep tiers, which already parallelize across
// rows/cells/trials and run 0 as sequential solves). Solver outputs are bit-identical
// for every worker count — the knob moves wall-clock only. -plane selects
// the shared SSSP plane mode: subtree (the default; the plane repairs or
// refills each dirty row by its journal window) or off (outputs are
// mode-independent too; scale/churn rows print the plane's dedup factor and
// repair skip rate when they fired).
//
// The report experiment prints the per-scenario MF-vs-MCF comparison table
// (overall throughput, demand-satisfaction floor, mean link utilization,
// Jain fairness over satisfaction ratios) at a small and a medium tier —
// the "which allocation wins where" sweep:
//
//	experiments report
//	experiments -scenario cdn,livestream report
//
// The churn experiment replays a scenario-driven arrival/departure trace
// through the online allocator (sizes, demands, and member popularity from
// the -scenario workload mixes; all scenarios when the flag is empty), with
// per-session oracles prefabricated across the worker pool:
//
//	experiments -scenario cdn churn
//	experiments -nodes 2000 -workers 8 churn
//
// The warmchurn experiment replays an arrival/departure trace through the
// v2 Allocator with a periodic Snapshot cadence, once warm-started and once
// with every refresh forced cold, and prints the steady-state fair
// allocations/sec both sustain plus the warm-start speedup:
//
//	experiments warmchurn
//	experiments -nodes 400 -workers 8 warmchurn
//
// The faultchurn experiment runs the warmchurn replay (arbitrary routing,
// a snapshot every 4 events) interleaved with a seeded link flap trace on 8
// links (Poisson failures, exponential repairs) through the v2 Allocator's
// public Fault surface — once raw and once filtered through the route-flap
// damper — and prints both rows plus the damper's suppression bound on
// fault-forced cold re-solves:
//
//	experiments faultchurn
//	experiments -nodes 600 -workers 8 faultchurn
//
// The daemonchurn experiment boots an in-process overcastd admin server on
// a unix socket and replays the same trace through a concurrent
// synthetic client fleet speaking the wire protocol (joins, leaves, cached
// and refreshing snapshot reads), printing the sustained admin ops/sec —
// the daemon-path counterpart of warmchurn:
//
//	experiments daemonchurn
//	experiments -nodes 400 -workers 8 daemonchurn
//
// All three replay one trace shape on -nodes nodes, 120 by default (600 at
// -scale paper or large).
//
// -scale small (default) runs reduced instances in seconds; -scale paper
// reproduces the paper's instance sizes (100-node Waxman, 10x100 two-level
// topology, ratio sweep 0.90..0.99) and can take hours for the Sec. VI
// grid; -scale large runs the north-star regime the BenchmarkScale*
// benchmarks measure — Waxman topologies at 2,000-10,000 nodes with 64-256
// competing sessions under both routing models (minutes to hours). The
// "scale" experiment honours -nodes/-sessions/-sessionsize to solve one
// custom instance instead of the built-in suite.
//
// -scenario selects named workload scenarios for the scale tier
// (comma-separated; "all" sweeps every registered scenario, "list" prints
// the catalogue): heterogeneous capacity/demand distributions and session
// mixes from internal/workload, generated on the grid-accelerated Waxman
// topology. For example:
//
//	experiments -scenario list
//	experiments -scenario heavytail scale
//	experiments -scale large -scenario livestream,cdn scale
//	experiments -scenario cdn -nodes 5000 -sessions 128 scale
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"overcast/internal/core"
	"overcast/internal/experiments"
	"overcast/internal/stats"
	"overcast/internal/workload"
)

func main() {
	scale := flag.String("scale", "small", "instance scale: small, paper, or large")
	seed := flag.Uint64("seed", 2004, "experiment seed")
	trials := flag.Int("trials", 0, "override trial count for averaged sweeps (0 = scale default)")
	maxpts := flag.Int("maxpts", 12, "max points printed per curve")
	nodes := flag.Int("nodes", 0, "scale experiment: custom topology size (0 = built-in suite)")
	sessions := flag.Int("sessions", 64, "scale experiment: custom session count")
	sessionSize := flag.Int("sessionsize", 6, "scale experiment: custom members per session")
	scenario := flag.String("scenario", "", "scale experiment: workload scenarios, comma-separated (all | list | names)")
	var solver core.SolverOptions
	solver.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *scenario == "list" {
		fmt.Println("Registered workload scenarios:")
		for _, name := range workload.Names() {
			sc, _ := workload.Get(name)
			fmt.Printf("  %-13s %s\n                (%s; capacity %v, demand %v, %v, popularity s=%g)\n",
				name, sc.Description, sc.Regime, sc.Capacity, sc.Demand, sc.Size, sc.PopularityExp)
		}
		return
	}

	exps := flag.Args()
	if len(exps) == 0 {
		if *scale == "large" || *scenario != "" {
			exps = []string{"scale"}
		} else {
			exps = []string{"table2", "fig2", "table4", "fig3", "fig4", "fig5", "fig6",
				"table7", "fig7", "table8", "fig8", "fig9", "fig10", "fig11"}
		}
	}
	if len(exps) == 1 && exps[0] == "all" {
		exps = []string{"table2", "fig2", "table4", "fig3", "fig4", "fig5", "fig6",
			"table7", "fig7", "table8", "fig8", "fig9", "fig10", "fig11",
			"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
			"scale", "churn", "warmchurn", "daemonchurn", "faultchurn", "report"}
	}

	r := runner{scale: *scale, seed: *seed, trials: *trials, maxpts: *maxpts,
		nodes: *nodes, sessions: *sessions, sessionSize: *sessionSize, scenario: *scenario,
		solver: solver}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sessionsize" {
			r.sessionSizeSet = true
		}
	})
	for _, e := range exps {
		start := time.Now()
		if err := r.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}
}

type runner struct {
	scale          string
	seed           uint64
	trials         int
	maxpts         int
	nodes          int
	sessions       int
	sessionSize    int
	sessionSizeSet bool // -sessionsize given explicitly (conflicts with -scenario)
	scenario       string
	solver         core.SolverOptions

	settingA *experiments.SettingA
	settingB *experiments.SettingB
}

// scenarioNames resolves the -scenario flag into registry names (nil, from
// "all", means every registered scenario). Whitespace and empty entries
// from stray commas are dropped, so "cdn," cannot silently select the
// legacy empty-scenario construction; a value that is nothing but
// separators is an error, not a full-registry sweep.
func (r *runner) scenarioNames() ([]string, error) {
	if r.scenario == "all" {
		return nil, nil
	}
	var names []string
	for _, name := range strings.Split(r.scenario, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-scenario %q names no scenario (have all | %s)",
			r.scenario, strings.Join(workload.Names(), " | "))
	}
	return names, nil
}

func (r *runner) ratios() []float64 {
	if r.scale == "paper" {
		return experiments.PaperRatios
	}
	return []float64{0.90, 0.93, 0.95}
}

func (r *runner) a() (*experiments.SettingA, error) {
	if r.settingA != nil {
		return r.settingA, nil
	}
	cfg := experiments.DefaultSettingA()
	if r.scale != "paper" {
		cfg = experiments.SettingAConfig{Nodes: 60, SessionSizes: []int{6, 4}, Demand: 100, Capacity: 100}
	}
	a, err := experiments.NewSettingA(r.seed, cfg)
	if err != nil {
		return nil, err
	}
	a.SolverOptions = r.solver
	r.settingA = a
	return a, nil
}

func (r *runner) b() (*experiments.SettingB, error) {
	if r.settingB != nil {
		return r.settingB, nil
	}
	cfg := experiments.DefaultSettingB()
	if r.scale != "paper" {
		cfg = experiments.SettingBConfig{ASes: 3, RoutersPerAS: 12, Capacity: 100}
	}
	b, err := experiments.NewSettingB(r.seed, cfg)
	if err != nil {
		return nil, err
	}
	b.SolverOptions = r.solver
	r.settingB = b
	return b, nil
}

func (r *runner) gridCfg() experiments.GridConfig {
	if r.scale == "paper" {
		return experiments.DefaultGrid()
	}
	return experiments.GridConfig{
		SessionCounts: []int{1, 2, 3},
		SessionSizes:  []int{4, 8, 12},
		Ratio:         0.93,
		Demand:        1,
	}
}

func (r *runner) treeLimitCfg(arbitrary bool) experiments.TreeLimitConfig {
	cfg := experiments.DefaultTreeLimit()
	cfg.Arbitrary = arbitrary
	if r.scale != "paper" {
		cfg.MaxTrees = []int{1, 2, 5, 10, 15, 20}
		cfg.Mus = []float64{10, 30, 100}
		cfg.Trials = 10
		cfg.BaseRatio = 0.93
	}
	if r.trials > 0 {
		cfg.Trials = r.trials
	}
	return cfg
}

func (r *runner) onlineTrials() int {
	if r.trials > 0 {
		return r.trials
	}
	if r.scale == "paper" {
		return 100
	}
	return 5
}

// churnTrace is the default trace of the warmchurn, faultchurn and
// daemonchurn replays: -nodes, else 120 nodes (600 at -scale paper|large).
func (r *runner) churnTrace() experiments.ChurnTrace {
	nodes := r.nodes
	if nodes == 0 {
		nodes = 120
		if r.scale == "paper" || r.scale == "large" {
			nodes = 600
		}
	}
	return experiments.ChurnTrace{Nodes: nodes}
}

func (r *runner) run(exp string) error {
	switch exp {
	case "table2", "table7":
		arb := exp == "table7"
		a, err := r.a()
		if err != nil {
			return err
		}
		rows, _, err := a.MaxFlowSweep(r.ratios(), arb)
		if err != nil {
			return err
		}
		title := "Table II: MaxFlow (fixed IP routing)"
		if arb {
			title = "Table VII: MaxFlow (arbitrary routing)"
		}
		fmt.Print(experiments.RenderFlowTable(title, rows))
	case "fig2", "fig7":
		arb := exp == "fig7"
		a, err := r.a()
		if err != nil {
			return err
		}
		ratios := r.ratios()
		_, sols, err := a.MaxFlowSweep(ratios, arb)
		if err != nil {
			return err
		}
		for ri, sol := range sols {
			curves := experiments.RateCDFs(sol)
			labels := make([]string, len(curves))
			for i := range labels {
				labels[i] = fmt.Sprintf("session %d", i+1)
			}
			fmt.Print(experiments.RenderCDFFamily(
				fmt.Sprintf("%s: tree-rate CDF at ratio %.2f", exp, ratios[ri]), labels, curves, r.maxpts))
		}
	case "table4", "table8":
		arb := exp == "table8"
		a, err := r.a()
		if err != nil {
			return err
		}
		rows, _, err := a.MCFSweep(r.ratios(), arb)
		if err != nil {
			return err
		}
		title := "Table IV: MaxConcurrentFlow (fixed IP routing)"
		if arb {
			title = "Table VIII: MaxConcurrentFlow (arbitrary routing)"
		}
		fmt.Print(experiments.RenderMCFTable(title, rows))
	case "fig3", "fig8":
		arb := exp == "fig8"
		a, err := r.a()
		if err != nil {
			return err
		}
		ratios := r.ratios()
		_, sols, err := a.MCFSweep(ratios, arb)
		if err != nil {
			return err
		}
		for ri, sol := range sols {
			curves := experiments.RateCDFs(sol)
			labels := make([]string, len(curves))
			for i := range labels {
				labels[i] = fmt.Sprintf("session %d", i+1)
			}
			fmt.Print(experiments.RenderCDFFamily(
				fmt.Sprintf("%s: MCF tree-rate CDF at ratio %.2f", exp, ratios[ri]), labels, curves, r.maxpts))
		}
	case "fig4", "fig9":
		arb := exp == "fig9"
		a, err := r.a()
		if err != nil {
			return err
		}
		_, mf, err := a.MaxFlowSweep([]float64{0.95}, arb)
		if err != nil {
			return err
		}
		_, mcf, err := a.MCFSweep([]float64{0.95}, arb)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCDFFamily(exp+": link utilization",
			[]string{"MaxFlow", "MaxConcurrentFlow"},
			[][]stats.Point{experiments.LinkUtilizationCDF(mf[0]), experiments.LinkUtilizationCDF(mcf[0])},
			r.maxpts))
	case "fig5", "fig6", "fig10", "fig11":
		arb := exp == "fig10" || exp == "fig11"
		a, err := r.a()
		if err != nil {
			return err
		}
		res, err := a.TreeLimitSweep(r.treeLimitCfg(arb))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTreeLimit(res))
	case "fig12", "fig13", "fig14", "fig15", "fig16", "fig17":
		b, err := r.b()
		if err != nil {
			return err
		}
		grid, err := b.Grid(r.gridCfg())
		if err != nil {
			return err
		}
		switch exp {
		case "fig12":
			fmt.Println("Fig 12: overall throughput (MaxFlow)")
			fmt.Print(grid.Throughput.Render())
		case "fig13":
			fmt.Println("Fig 13: physical edges per node")
			fmt.Print(grid.EdgesPerNode.Render())
		case "fig14":
			fmt.Println("Fig 14: link utilization panels")
			keys := make([][2]int, 0, len(grid.Cells))
			for k := range grid.Cells {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i][0] != keys[j][0] {
					return keys[i][0] < keys[j][0]
				}
				return keys[i][1] < keys[j][1]
			})
			for _, k := range keys {
				cell := grid.Cells[k]
				fmt.Print(experiments.RenderCDFFamily(
					fmt.Sprintf("sessions=%d size=%d", cell.Sessions, cell.Size),
					[]string{"MaxConcurrentFlow", "MaxFlow"},
					[][]stats.Point{cell.MCFUtilCDF, cell.MFUtilCDF}, r.maxpts))
			}
		case "fig15":
			fmt.Println("Fig 15: minimum session rate (MaxConcurrentFlow)")
			fmt.Print(grid.MinRate.Render())
		case "fig16":
			fmt.Println("Fig 16: throughput ratio MCF/MF")
			fmt.Print(grid.ThroughputRatio.Render())
		case "fig17":
			fmt.Println("Fig 17: tree-rate CDF vs session size (single session, MaxFlow)")
			for _, k := range sortedKeys(grid) {
				cell := grid.Cells[k]
				if cell.Sessions != 1 {
					continue
				}
				fmt.Printf("-- size %d\n%s", cell.Size, stats.RenderCurve(cell.MFTreeRateCDF, r.maxpts))
			}
		}
	case "fig18", "fig19":
		b, err := r.b()
		if err != nil {
			return err
		}
		limits := []int{5, 60}
		if r.scale != "paper" {
			limits = []int{5, 15}
		}
		res, err := b.OnlineGrid(r.gridCfg(), limits, 10, r.onlineTrials())
		if err != nil {
			return err
		}
		for _, l := range limits {
			if exp == "fig18" {
				fmt.Printf("Fig 18: online/MaxFlow throughput ratio, %d trees\n", l)
				fmt.Print(res.ThroughputRatio[l].Render())
			} else {
				fmt.Printf("Fig 19: online/MCF min-rate ratio, %d trees\n", l)
				fmt.Print(res.MinRateRatio[l].Render())
			}
		}
	case "scale":
		var cfgs []experiments.ScaleConfig
		switch {
		case r.scenario != "":
			names, err := r.scenarioNames()
			if err != nil {
				return err
			}
			if r.sessionSizeSet {
				// Scenario session sizes come from the workload's size mix.
				fmt.Fprintln(os.Stderr, "experiments: warning: -sessionsize is ignored with -scenario (the scenario's session-size mix applies)")
			}
			switch {
			case r.nodes > 0:
				if names == nil {
					names = workload.Names()
				}
				for _, name := range names {
					if _, err := workload.Get(name); err != nil {
						return err
					}
					cfgs = append(cfgs,
						experiments.ScaleConfig{Nodes: r.nodes, Sessions: r.sessions, Scenario: name},
						experiments.ScaleConfig{Nodes: r.nodes, Sessions: r.sessions, Scenario: name, Arbitrary: true},
					)
				}
			case r.scale == "paper" || r.scale == "large":
				cfgs, err = experiments.ScenarioScaleSuite(names)
			default:
				cfgs, err = experiments.SmallScenarioSuite(names)
			}
			if err != nil {
				return err
			}
		case r.nodes > 0:
			cfgs = []experiments.ScaleConfig{
				{Nodes: r.nodes, Sessions: r.sessions, SessionSize: r.sessionSize},
				{Nodes: r.nodes, Sessions: r.sessions, SessionSize: r.sessionSize, Arbitrary: true},
			}
		case r.scale == "paper" || r.scale == "large":
			cfgs = experiments.DefaultScaleSuite()
		default:
			cfgs = experiments.SmallScaleSuite()
		}
		for ci := range cfgs {
			cfgs[ci].SolverOptions = r.solver
		}
		rows, err := experiments.ScaleSuite(r.seed, 0.3, cfgs)
		if err != nil {
			return err
		}
		fmt.Println("Scale tier: large-instance solver throughput")
		for _, row := range rows {
			fmt.Println(row.String())
		}
	case "report":
		var names []string
		if r.scenario != "" {
			var err error
			if names, err = r.scenarioNames(); err != nil {
				return err
			}
		}
		rows, err := experiments.MFvsMCFReport(r.seed, 0.3, r.solver, names, nil)
		if err != nil {
			return err
		}
		fmt.Println("Report tier: MF vs MCF per workload scenario (which allocation wins where)")
		fmt.Print(experiments.RenderReport(rows))
	case "warmchurn":
		cfg := experiments.WarmChurnConfig{ChurnTrace: r.churnTrace(), SolverOptions: r.solver}
		warm, cold, err := experiments.WarmChurnPair(r.seed, cfg)
		if err != nil {
			return err
		}
		fmt.Println("Warm-churn tier: Allocator v2 steady-state fair allocations under churn (warm-start vs cold re-solve)")
		fmt.Println(warm.String())
		fmt.Println(cold.String())
		if cold.AllocationsPerSec > 0 {
			fmt.Printf("warm-start steady-state speedup: %.2fx allocations/sec\n",
				warm.AllocationsPerSec/cold.AllocationsPerSec)
		}
		if q := experiments.WarmQuality(warm, cold); q > 0 {
			fmt.Printf("warm-start mean snapshot quality: %.4f of cold throughput (FPTAS band >= %.4f)\n",
				q, 1/(1+warm.Config.Epsilon))
		}
	case "faultchurn":
		cfg := experiments.WarmChurnConfig{
			ChurnTrace: r.churnTrace(), Arbitrary: true, SolverOptions: r.solver,
			SnapshotEvery: 4, FaultEdges: 8,
		}
		undamped, err := experiments.WarmChurnRun(r.seed, cfg)
		if err != nil {
			return err
		}
		cfg.Damped = true
		damped, err := experiments.WarmChurnRun(r.seed, cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fault-churn tier: session churn under underlay link flaps (raw vs flap-damped)")
		fmt.Println(undamped.String())
		fmt.Println(damped.String())
		if undamped.ColdSolves > 0 {
			fmt.Printf("flap damping: %d/%d fault events suppressed, cold re-solves %d -> %d (%.2fx)\n",
				damped.Suppressed, undamped.TraceFaults,
				undamped.ColdSolves, damped.ColdSolves,
				float64(undamped.ColdSolves)/float64(max(damped.ColdSolves, 1)))
		}
	case "daemonchurn":
		rep, err := experiments.DaemonChurnRun(r.seed, experiments.DaemonChurnConfig{
			ChurnTrace: r.churnTrace(), Workers: r.solver.Workers,
		})
		if err != nil {
			return err
		}
		fmt.Println("Daemon-churn tier: overcastd admin socket throughput under a synthetic client fleet")
		fmt.Println(rep.String())
	case "churn":
		var names []string
		if r.scenario != "" {
			var err error
			if names, err = r.scenarioNames(); err != nil {
				return err
			}
		}
		nodes := r.nodes
		if nodes == 0 {
			nodes = 300
			if r.scale == "paper" || r.scale == "large" {
				nodes = 2000
			}
		}
		reports, err := experiments.ChurnSuite(r.seed, nodes, r.solver, names)
		if err != nil {
			return err
		}
		fmt.Println("Churn tier: scenario-driven online allocation under arrivals/departures")
		for _, rep := range reports {
			fmt.Println(rep.String())
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func sortedKeys(grid *experiments.GridResult) [][2]int {
	keys := make([][2]int, 0, len(grid.Cells))
	for k := range grid.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}
