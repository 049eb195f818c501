// Command detdump prints a full-precision fingerprint of solver outputs on
// deterministic instances, used to verify that refactors keep solutions
// bit-identical for fixed seeds. The CI determinism gate runs it at worker
// counts 1, 2, and 8 (-workers) in both shared SSSP plane modes (-plane
// subtree|off) and diffs the outputs: solver results must be a
// function of the seed only, never of the worker-pool size, goroutine
// scheduling, whether per-member Dijkstras were batched on the plane, or
// whether ledger-clean plane rows were skipped, subtree-repaired or
// refilled. Perf refactors additionally diff it against the dump from the
// pre-change tree.
//
// The fingerprint covers the paper's Setting-A instances under both routing
// modes, grid-Waxman workload-scenario instances (heterogeneous
// capacities/demands, Zipf membership), a scenario-driven online/churn
// replay, a Zipf-hot arbitrary-routing instance where the plane serves
// most per-member Dijkstra reads, the v2 Allocator's warm-start churn
// path (anchor / warm-join / warm-leave snapshots, a rebalance, and an
// end-to-end churn replay), and a seeded
// underlay fault-trace replay whose non-monotone capacity shrinks force
// the plane's full-refill degradation and whose fault storm outruns the
// ledger journal — the degraded paths must stay bit-identical too.
package main

import (
	"flag"
	"fmt"

	"overcast"
	"overcast/internal/core"
	"overcast/internal/experiments"
)

func main() {
	var solver core.SolverOptions
	solver.RegisterFlags(flag.CommandLine)
	flag.Parse()

	for _, arb := range []bool{false, true} {
		a, err := experiments.NewSettingA(7, experiments.SettingAConfig{
			Nodes: 120, SessionSizes: []int{7, 5, 4}, Demand: 100, Capacity: 100,
		})
		if err != nil {
			panic(err)
		}
		a.SolverOptions = solver
		p := a.ProblemIP
		if arb {
			p = a.ProblemArb
		}
		mf, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.08, SolverOptions: solver})
		if err != nil {
			panic(err)
		}
		fmt.Printf("arb=%v maxflow mstops=%d\n", arb, mf.MSTOps)
		for i := range p.Sessions {
			fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, mf.SessionRate(i), mf.TreeCount(i))
		}
		for e, u := range mf.Utilizations() {
			if e%37 == 0 {
				fmt.Printf("  util[%d]=%.17g\n", e, u)
			}
		}
		mcf, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
			Epsilon: 0.1, SurplusPass: true, SolverOptions: solver,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("arb=%v mcf lambda=%.17g mstops=%d prestep=%d\n", arb, mcf.Lambda, mcf.MSTOps, mcf.PrestepMSTOps)
		for i := range p.Sessions {
			fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, mcf.SessionRate(i), mcf.TreeCount(i))
		}
		tl, err := a.TreeLimitSweep(experiments.TreeLimitConfig{
			MaxTrees: []int{1, 5}, Mus: []float64{30}, Trials: 4, BaseRatio: 0.92, Arbitrary: arb,
		})
		if err != nil {
			panic(err)
		}
		for j := range tl.MaxTrees {
			fmt.Printf("arb=%v treelimit[%d] rnd=%.17g online=%.17g\n",
				arb, j, tl.Random[j].Throughput, tl.Online[30][j].Throughput)
		}
	}

	for _, scenario := range []string{"heavytail", "cdn"} {
		si, err := experiments.NewScaleInstance(2026, experiments.ScaleConfig{
			Nodes: 300, Sessions: 10, Scenario: scenario, SolverOptions: solver,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("scenario=%s edges=%d caps=%.17g\n",
			scenario, si.Net.Graph.NumEdges(), si.Net.Graph.TotalCapacity())
		mcf, err := si.MCF(0.3)
		if err != nil {
			panic(err)
		}
		fmt.Printf("scenario=%s mcf lambda=%.17g mstops=%d\n", scenario, mcf.Lambda, mcf.MSTOps)
		for i := range si.Sessions {
			fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, mcf.SessionRate(i), mcf.TreeCount(i))
		}
		mf, err := si.MaxFlow(0.3)
		if err != nil {
			panic(err)
		}
		fmt.Printf("scenario=%s maxflow thpt=%.17g mstops=%d\n", scenario, mf.OverallThroughput(), mf.MSTOps)
		for e, u := range mf.Utilizations() {
			if e%37 == 0 {
				fmt.Printf("  util[%d]=%.17g\n", e, u)
			}
		}
	}

	// Online/churn replay: the oracle-prefabrication worker count must not
	// leak into the sequential replay's outputs.
	for _, scenario := range []string{"conferencing", "livestream"} {
		rep, err := experiments.ChurnRun(2027, experiments.ChurnConfig{
			Nodes: 300, Scenario: scenario, SolverOptions: solver,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("churn=%s sessions=%d peak=%d maxcong=%.17g active=%d thpt=%.17g minrate=%.17g mstops=%d\n",
			scenario, rep.Sessions, rep.PeakConcurrency, rep.PeakCongestion,
			rep.FinalActive, rep.Throughput, rep.MinRate, rep.MSTOps)
	}

	// Arbitrary routing under Zipf-hot membership: many sessions sharing hot
	// member nodes is exactly the regime the shared SSSP plane rebatches, so
	// pin a fingerprint where the plane serves most per-member Dijkstras.
	si, err := experiments.NewScaleInstance(2028, experiments.ScaleConfig{
		Nodes: 150, Sessions: 12, Scenario: "cdn", Arbitrary: true, SolverOptions: solver,
	})
	if err != nil {
		panic(err)
	}
	zmf, err := si.MaxFlow(0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("zipfarb=cdn maxflow thpt=%.17g mstops=%d\n", zmf.OverallThroughput(), zmf.MSTOps)
	for i := range si.Sessions {
		fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, zmf.SessionRate(i), zmf.TreeCount(i))
	}
	for e, u := range zmf.Utilizations() {
		if e%37 == 0 {
			fmt.Printf("  util[%d]=%.17g\n", e, u)
		}
	}

	// Two-level AS topology (the paper's Sec. VI construction): the sections
	// above all run on flat Waxman graphs.
	tli, err := experiments.NewScaleInstance(2031, experiments.ScaleConfig{
		Nodes: 240, Sessions: 8, SessionSize: 6, TwoLevelASes: 6, SolverOptions: solver,
	})
	if err != nil {
		panic(err)
	}
	tmcf, err := tli.MCF(0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("twolevel=%s mcf lambda=%.17g mstops=%d\n", tli.Config.Name(), tmcf.Lambda, tmcf.MSTOps)
	for i := range tli.Sessions {
		fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, tmcf.SessionRate(i), tmcf.TreeCount(i))
	}
	tmf, err := tli.MaxFlow(0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("twolevel=%s maxflow thpt=%.17g mstops=%d\n", tli.Config.Name(), tmf.OverallThroughput(), tmf.MSTOps)
	for e, u := range tmf.Utilizations() {
		if e%37 == 0 {
			fmt.Printf("  util[%d]=%.17g\n", e, u)
		}
	}

	// MF-vs-MCF report fingerprint (small tier only, all scenarios): the
	// "which allocation wins where" table must be a pure function of the
	// seed, like everything above it.
	rows, err := experiments.MFvsMCFReport(2029, 0.3, solver,
		nil, []experiments.ReportTier{{Name: "small", Nodes: 300, Sessions: 12}})
	if err != nil {
		panic(err)
	}
	for _, row := range rows {
		fmt.Printf("report %s %s %s edges=%d thpt=%.17g minratio=%.17g meanutil=%.17g fairness=%.17g\n",
			row.Scenario, row.Tier, row.Solver, row.Edges, row.Throughput, row.MinRatio, row.MeanUtil, row.Fairness)
	}

	// Warm-start churn path (Allocator v2): the warm repair phases run on the
	// same BatchRunner machinery as the cold solves, so every snapshot —
	// anchor, warm-join catch-up, warm-leave re-grow — must be bit-identical
	// across worker counts and plane modes, and the warm/cold
	// refresh split itself must be deterministic.
	warmNet, err := overcast.WaxmanNetwork(60, 100, 41)
	if err != nil {
		panic(err)
	}
	wa, err := overcast.NewAllocator(warmNet, overcast.AllocatorOptions{Workers: solver.Workers, Plane: solver.Plane})
	if err != nil {
		panic(err)
	}
	defer wa.Close()
	warmSessions := []overcast.Session{
		{Members: []int{0, 11, 23, 37}, Demand: 100},
		{Members: []int{4, 18, 42}, Demand: 100},
		{Members: []int{7, 29, 51, 58}, Demand: 100},
		{Members: []int{2, 33, 49}, Demand: 100},
	}
	var warmIDs []overcast.SessionID
	for _, s := range warmSessions[:3] {
		p, err := wa.Join(s)
		if err != nil {
			panic(err)
		}
		warmIDs = append(warmIDs, p.Session)
	}
	dumpWarm := func(stage string) {
		snap, err := wa.Snapshot()
		if err != nil {
			panic(err)
		}
		st := wa.Stats()
		fmt.Printf("warmchurn %s active=%d cold=%d warm=%d repair=%d\n",
			stage, wa.Active(), st.ColdSolves, st.WarmRefreshes, st.RepairPhases)
		for i := 0; i < wa.Active(); i++ {
			fmt.Printf("  rate[%d]=%.17g trees=%d\n", i, snap.SessionRate(i), snap.TreeCount(i))
		}
	}
	dumpWarm("anchor")
	p, err := wa.Join(warmSessions[3])
	if err != nil {
		panic(err)
	}
	warmIDs = append(warmIDs, p.Session)
	dumpWarm("join")
	if err := wa.Leave(warmIDs[1]); err != nil {
		panic(err)
	}
	dumpWarm("leave")
	placements, err := wa.Rebalance()
	if err != nil {
		panic(err)
	}
	for _, pl := range placements {
		fmt.Printf("warmchurn placement %v rate=%.17g trees=%d\n", pl.Session, pl.Rate, len(pl.Trees))
	}

	// End-to-end warm churn replay fingerprint (counters and final
	// allocation only — the per-event trace is huge).
	wrep, err := experiments.WarmChurnRun(2030, experiments.WarmChurnConfig{
		Nodes: 80, SolverOptions: solver,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("warmchurn replay sessions=%d peak=%d snaps=%d warm=%d cold=%d repair=%d mstops=%d active=%d thpt=%.17g minrate=%.17g\n",
		wrep.Sessions, wrep.PeakConcurrency, wrep.Snapshots, wrep.WarmRefreshes, wrep.ColdSolves,
		wrep.RepairPhases, wrep.MSTOps, wrep.FinalActive, wrep.Throughput, wrep.MinRate)

	// Fault-trace replay: a seeded underlay fault scenario (link-down growth,
	// recovery shrink, capacity drift, and a journal-flooding fault storm)
	// replayed through the persistent-ledger runner path. The non-monotone
	// shrinks degrade plane rows to full refills and the storm outruns the
	// ledger journal, and those degradation paths must stay bit-identical to
	// the never-degraded code shape. The fingerprint hashes tree identities,
	// lengths, and the final ledger only — the robustness counters are
	// mode-dependent by design and excluded.
	for _, fc := range []experiments.FaultSolveConfig{
		{Nodes: 48, Sessions: 4, SessionSize: 4, TwoLevelASes: 4,
			Rounds: 8, FailRound: 2, RecoverRound: 4, DriftRound: 5, FaultStorm: true},
		{Nodes: 72, Sessions: 5, Rounds: 9, DriftFactor: 0.4},
	} {
		fc.SolverOptions = solver
		frep, err := experiments.FaultSolveRun(2032, fc)
		if err != nil {
			panic(err)
		}
		fmt.Printf("fault nodes=%d ases=%d edges=%d rounds=%d events=%d fp=%s\n",
			fc.Nodes, fc.TwoLevelASes, frep.Edges, frep.Rounds, frep.UnderlayEvents, frep.Fingerprint)
	}
}
