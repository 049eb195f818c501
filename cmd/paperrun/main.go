// Command paperrun executes the paper-scale Setting A/B sweeps behind the
// README's "Reproducing the paper" section, printing every table and the
// summary statistics of every figure. It is separated from cmd/experiments
// so the long-running record-keeping pass has a stable, minimal surface.
package main

import (
	"flag"
	"fmt"
	"time"

	"overcast/internal/experiments"
	"overcast/internal/stats"
)

func main() {
	part := flag.String("part", "a", "a = Setting A sweeps, b = Setting B grid")
	seed := flag.Uint64("seed", 2004, "seed")
	workers := flag.Int("workers", 0, "solver oracle worker-pool size; the sweeps already parallelize across rows/cells, so 0 runs each solve sequentially instead of at GOMAXPROCS; outputs are worker-count independent")
	flag.Parse()
	switch *part {
	case "a":
		runA(*seed, *workers)
	case "b":
		runB(*seed, *workers)
	}
}

func runA(seed uint64, workers int) {
	start := time.Now()
	a, err := experiments.NewSettingA(seed, experiments.DefaultSettingA())
	if err != nil {
		panic(err)
	}
	a.Workers = workers
	fmt.Printf("# Setting A: %s, sessions %d+%d members, seed %d\n",
		a.Net.Name, a.Sessions[0].Size(), a.Sessions[1].Size(), seed)

	rows, sols, err := a.MaxFlowSweep(experiments.PaperRatios, false)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderFlowTable("Table II: MaxFlow (fixed IP routing)", rows))
	fig2(sols[5], "Fig 2 (ratio 0.95)")

	mrows, msols, err := a.MCFSweep(experiments.PaperRatios, false)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderMCFTable("Table IV: MaxConcurrentFlow (fixed IP routing)", mrows))
	fig2(msols[5], "Fig 3 (ratio 0.95)")
	util(sols[5], msols[5], "Fig 4 (ratio 0.95)")

	arows, asols, err := a.MaxFlowSweep(experiments.PaperRatios, true)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderFlowTable("Table VII: MaxFlow (arbitrary routing)", arows))
	fig2(asols[5], "Fig 7 (ratio 0.95)")

	abrows, absols, err := a.MCFSweep(experiments.PaperRatios, true)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderMCFTable("Table VIII: MaxConcurrentFlow (arbitrary routing)", abrows))
	fig2(absols[5], "Fig 8 (ratio 0.95)")
	util(asols[5], absols[5], "Fig 9 (ratio 0.95)")

	cfg := experiments.DefaultTreeLimit()
	cfg.Trials = 100
	res, err := a.TreeLimitSweep(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderTreeLimit(res))
	fmt.Printf("# Setting A done in %v\n", time.Since(start).Round(time.Second))
}

func fig2(sol interface {
	RateDistribution(i int) []float64
}, label string) {
	for i := 0; i < 2; i++ {
		rates := sol.RateDistribution(i)
		fmt.Printf("%s session %d: %d trees, top-90%% share in top %.1f%% of trees, Gini %.3f\n",
			label, i+1, len(rates), 100*stats.TopShareFraction(rates, 0.9), stats.Gini(rates))
	}
}

func util(mf, mcf interface{ Utilizations() []float64 }, label string) {
	um, uc := mf.Utilizations(), mcf.Utilizations()
	fmt.Printf("%s: MF %d covered links, mean util %.3f, median %.3f | MCF %d links, mean %.3f, median %.3f\n",
		label, len(um), stats.Mean(um), stats.Quantile(um, 0.5),
		len(uc), stats.Mean(uc), stats.Quantile(uc, 0.5))
}

func runB(seed uint64, workers int) {
	start := time.Now()
	b, err := experiments.NewSettingB(seed, experiments.SettingBConfig{ASes: 5, RoutersPerAS: 20, Capacity: 100})
	if err != nil {
		panic(err)
	}
	b.Workers = workers
	fmt.Printf("# Setting B: %s (scaled: 5 AS x 20 routers; paper: 10x100), seed %d\n", b.Net.Name, seed)
	cfg := experiments.GridConfig{
		SessionCounts: []int{1, 3, 5, 7, 9},
		SessionSizes:  []int{10, 20, 30, 40},
		Ratio:         0.95,
		Demand:        1,
	}
	grid, err := b.Grid(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("Fig 12: overall throughput (MaxFlow)")
	fmt.Print(grid.Throughput.Render())
	fmt.Println("Fig 13: physical edges per node")
	fmt.Print(grid.EdgesPerNode.Render())
	fmt.Println("Fig 15: min session rate (MCF)")
	fmt.Print(grid.MinRate.Render())
	fmt.Println("Fig 16: throughput ratio MCF/MF")
	fmt.Print(grid.ThroughputRatio.Render())
	fmt.Println("Fig 14: mean/median link utilization by cell")
	for _, n := range cfg.SessionCounts {
		for _, s := range cfg.SessionSizes {
			cell := grid.Cells[[2]int{n, s}]
			um := pointsY(cell.MFUtilCDF)
			uc := pointsY(cell.MCFUtilCDF)
			fmt.Printf("  sessions=%d size=%d: MF mean %.3f median %.3f | MCF mean %.3f median %.3f\n",
				n, s, stats.Mean(um), stats.Quantile(um, 0.5), stats.Mean(uc), stats.Quantile(uc, 0.5))
		}
	}
	fmt.Println("Fig 17: top-90% tree share (single session, MaxFlow)")
	for _, s := range cfg.SessionSizes {
		cell := grid.Cells[[2]int{1, s}]
		n := len(cell.MFTreeRateCDF)
		frac := 1.0
		for _, p := range cell.MFTreeRateCDF {
			if p.Y >= 0.9 {
				frac = p.X
				break
			}
		}
		fmt.Printf("  size %d: %d trees, top-90%% share in top %.1f%% of trees\n", s, n, 100*frac)
	}
	on, err := b.OnlineGrid(cfg, []int{5, 30}, 10, 10)
	if err != nil {
		panic(err)
	}
	for _, l := range []int{5, 30} {
		fmt.Printf("Fig 18: online/MF throughput ratio, %d trees\n", l)
		fmt.Print(on.ThroughputRatio[l].Render())
		fmt.Printf("Fig 19: online/MCF min-rate ratio, %d trees\n", l)
		fmt.Print(on.MinRateRatio[l].Render())
	}
	fmt.Printf("# Setting B done in %v\n", time.Since(start).Round(time.Second))
}

func pointsY(ps []stats.Point) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.Y
	}
	return out
}
