package core

import (
	"fmt"

	"overcast/internal/overlay"
)

// This file implements the MCF beta prestep of the public MaxConcurrentFlow:
// beta_i = the single-session maximum flow of session i, used to pre-scale
// demands so the scaled optimum lands in [1, k] (Sec. III-C), and reported
// with its spanning-tree operations as Table IV's second running-time
// component. The subproblems are independent Garg–Könemann runs over the
// same physical topology, so they fan across the worker pool with
// index-aligned result slots, each MaxFlow on one worker with its own
// persistent plane (ledger-driven skip and repair across its iterations).
// Betas, MSTOps, plane counters and errors are folded in session order,
// identical to a sequential pass. A Warm anchor runs no prestep; it
// brackets lambda* with one oracle round instead (see anchorSolve).

// prestepBetas computes the per-session maximum flows of p. It returns the
// betas, the spanning-tree operations of their MaxFlows, and their plane
// counters merged in session order.
func prestepBetas(p *Problem, eps float64, workers int, opts MaxConcurrentFlowOptions) ([]float64, int, overlay.PlaneStats, error) {
	k := p.K()
	betas := make([]float64, k)
	perSessionOps := make([]int, k)
	perSessionPlane := make([]overlay.PlaneStats, k)
	prestepErrs := make([]error, k)
	ParallelFor(workers, k, func(i int) {
		mf, err := MaxFlow(singleSessionProblem(p, i), MaxFlowOptions{
			Epsilon:       eps,
			SolverOptions: SolverOptions{Workers: 1, Plane: opts.Plane},
		})
		if err != nil {
			prestepErrs[i] = fmt.Errorf("core: beta prestep session %d: %w", i, err)
			return
		}
		perSessionOps[i] = mf.MSTOps
		perSessionPlane[i] = mf.Plane
		if betas[i] = mf.SessionRate(0); betas[i] <= 0 {
			prestepErrs[i] = fmt.Errorf("core: session %d has zero max flow", i)
		}
	})
	prestepOps := 0
	var prestepPlane overlay.PlaneStats
	for i := 0; i < k; i++ {
		if prestepErrs[i] != nil {
			return nil, 0, overlay.PlaneStats{}, prestepErrs[i]
		}
		prestepOps += perSessionOps[i]
		prestepPlane.Merge(perSessionPlane[i])
	}
	return betas, prestepOps, prestepPlane, nil
}

// singleSessionProblem projects p onto session i, reusing its oracle.
func singleSessionProblem(p *Problem, i int) *Problem {
	return &Problem{
		G:            p.G,
		Sessions:     []*overlay.Session{p.Sessions[i]},
		Oracles:      []overlay.TreeOracle{p.Oracles[i]},
		Mode:         p.Mode,
		MaxReceivers: p.Sessions[i].Receivers(),
		U:            max(p.Oracles[i].MaxRouteHops(), 1),
	}
}
