// Command quicka2 records the arbitrary-routing tables and the Fig. 5/6
// tree-limit sweep at a reduced ratio set (the 0.98/0.99 arbitrary columns
// are out of wall-clock budget; see the README's "Reproducing the paper"
// section).
package main

import (
	"fmt"
	"time"

	"overcast/internal/experiments"
	"overcast/internal/stats"
)

func main() {
	start := time.Now()
	a, err := experiments.NewSettingA(2004, experiments.DefaultSettingA())
	if err != nil {
		panic(err)
	}
	ratios := []float64{0.90, 0.95}
	arows, asols, err := a.MaxFlowSweep(ratios, true)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderFlowTable("Table VII: MaxFlow (arbitrary routing; ratios 0.90/0.95)", arows))
	for i := 0; i < 2; i++ {
		rates := asols[1].RateDistribution(i)
		fmt.Printf("Fig 7 (0.95) session %d: %d trees, top-90%% in top %.1f%%, Gini %.3f\n",
			i+1, len(rates), 100*stats.TopShareFraction(rates, 0.9), stats.Gini(rates))
	}
	abrows, absols, err := a.MCFSweep(ratios, true)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderMCFTable("Table VIII: MaxConcurrentFlow (arbitrary routing; ratios 0.90/0.95)", abrows))
	um, uc := asols[1].Utilizations(), absols[1].Utilizations()
	fmt.Printf("Fig 9 (0.95): MF %d links mean %.3f median %.3f | MCF %d links mean %.3f median %.3f\n",
		len(um), stats.Mean(um), stats.Quantile(um, 0.5), len(uc), stats.Mean(uc), stats.Quantile(uc, 0.5))

	cfg := experiments.TreeLimitConfig{
		MaxTrees:  []int{1, 2, 4, 8, 12, 16, 20},
		Mus:       []float64{10, 30, 100, 200},
		Trials:    50,
		BaseRatio: 0.95,
	}
	res, err := a.TreeLimitSweep(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(experiments.RenderTreeLimit(res))
	mf, _, err := a.MaxFlowSweep([]float64{0.95}, false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("(reference: MaxFlow IP throughput at 0.95 = %.2f)\n", mf[0].Throughput)
	fmt.Printf("# done in %v\n", time.Since(start).Round(time.Second))
}
