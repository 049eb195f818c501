package core

import (
	"fmt"

	"overcast/internal/overlay"
)

// This file implements the MCF beta prestep: beta_i = the single-session
// maximum flow of session i, used to pre-scale demands so the scaled optimum
// lands in [1, k] (Sec. III-C). beta_i depends only on session i's members,
// epsilon, the routing discipline and the link capacities, so a caller that
// already knows some of them (a Warm allocator re-anchoring over sessions
// that survived its previous anchor, with no capacity change in between)
// passes them in and only the unknown ones are solved. Those subproblems are
// independent Garg–Könemann runs over the same physical topology, so they
// fan across the worker pool with index-aligned result slots, each MaxFlow
// on one worker with its own persistent plane (ledger-driven skip and repair
// across its iterations). Betas, MSTOps, plane counters and errors are
// folded in session order, identical to a sequential pass.

// prestepBetas computes the per-session maximum flows of p. known, when
// non-nil, is aligned with p.Sessions: a positive entry is taken as that
// session's beta and its MaxFlow is not run. It returns the betas, the
// spanning-tree operations of the MaxFlows actually run, and their plane
// counters merged in session order.
func prestepBetas(p *Problem, eps float64, workers int, opts MaxConcurrentFlowOptions, known []float64) ([]float64, int, overlay.PlaneStats, error) {
	k := p.K()
	betas := make([]float64, k)
	todo := make([]int, 0, k)
	for i := 0; i < k; i++ {
		if known != nil && known[i] > 0 {
			betas[i] = known[i]
		} else {
			todo = append(todo, i)
		}
	}
	perSessionOps := make([]int, len(todo))
	perSessionPlane := make([]overlay.PlaneStats, len(todo))
	prestepErrs := make([]error, len(todo))
	ParallelFor(workers, len(todo), func(j int) {
		i := todo[j]
		sub := singleSessionProblem(p, i)
		mf, err := MaxFlow(sub, MaxFlowOptions{
			Epsilon:       eps,
			SolverOptions: SolverOptions{Workers: 1, Plane: opts.Plane},
		})
		if err != nil {
			prestepErrs[j] = fmt.Errorf("core: beta prestep session %d: %w", i, err)
			return
		}
		betas[i] = mf.SessionRate(0)
		perSessionOps[j] = mf.MSTOps
		perSessionPlane[j] = mf.Plane
		if betas[i] <= 0 {
			prestepErrs[j] = fmt.Errorf("core: session %d has zero max flow", i)
		}
	})
	prestepOps := 0
	var prestepPlane overlay.PlaneStats
	for j := range todo {
		if prestepErrs[j] != nil {
			return nil, 0, overlay.PlaneStats{}, prestepErrs[j]
		}
		prestepOps += perSessionOps[j]
		prestepPlane.Merge(perSessionPlane[j])
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
