package core

import (
	"fmt"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// This file implements the MCF beta prestep: beta_i = the single-session
// maximum flow of session i, used to pre-scale demands so the scaled optimum
// lands in [1, k] (Sec. III-C). The k subproblems are independent
// Garg–Könemann runs over the *same* physical topology, which used to make
// the prestep the last place in arbitrary-mode MCF where identical Dijkstras
// were recomputed: every subproblem's first oracle round runs one Dijkstra
// per member under its uniform initial lengths, and Zipf-hot scenarios put
// the same members in many sessions.
//
// The batched formulation removes that duplication without giving up
// bit-identity to the isolated solves:
//
//   - Subproblems are grouped by their initial length function. A
//     subproblem's initial lengths are uniform delta(eps, |S_i|-1, U_i)
//     (maxFlowDelta), so the group key is the (receivers, U) pair — equal
//     pairs mean bitwise-equal initial length vectors.
//   - Each multi-subproblem group gets one *seed plane*: the union of the
//     group's member sources, Dijkstra'd once under the shared initial
//     lengths across the worker pool. Every subproblem's solver copies its
//     first-round rows from the seed (O(n) per row) instead of recomputing
//     them (overlay.BatchOptions.Seed) — identical bits, k times fewer
//     Dijkstras.
//   - After the first routing the subproblems' length functions diverge, so
//     no further cross-subproblem sharing is sound; from there each
//     subproblem's own persistent plane with ledger-driven dirty-source
//     repair keeps skipping the sources its routed trees did not touch.
//
// The per-session runs remain independent given their seed, so they still
// fan across the worker pool with i-indexed result slots; betas, MSTOps, and
// errors are folded in session order, identical to a sequential pass.

// prestepBetas computes the per-session maximum flows of p. It returns the
// betas, the total spanning-tree operations, and the aggregated plane
// counters (seed fills count as Sources; rows subproblems copied from a
// seed count as Seeded).
func prestepBetas(p *Problem, eps float64, workers int, opts MaxConcurrentFlowOptions) ([]float64, int, overlay.PlaneStats, error) {
	k := p.K()
	var prestepPlane overlay.PlaneStats
	seeds := make([]*overlay.Plane, k) // per-session seed (shared pointers within a group)
	if opts.Plane != overlay.PlaneOff {
		prestepPlane = buildPrestepSeeds(p, eps, workers, seeds)
	}

	betas := make([]float64, k)
	perSessionOps := make([]int, k)
	perSessionPlane := make([]overlay.PlaneStats, k)
	prestepErrs := make([]error, k)
	parallelFor(workers, k, func(i int) {
		sub := singleSessionProblem(p, i)
		mf, err := MaxFlow(sub, MaxFlowOptions{
			Epsilon:       eps,
			SolverOptions: SolverOptions{Workers: 1, Plane: opts.Plane},
			seedPlane:     seeds[i],
		})
		if err != nil {
			prestepErrs[i] = fmt.Errorf("core: beta prestep session %d: %w", i, err)
			return
		}
		betas[i] = mf.SessionRate(0)
		perSessionOps[i] = mf.MSTOps
		perSessionPlane[i] = mf.Plane
		if betas[i] <= 0 {
			prestepErrs[i] = fmt.Errorf("core: session %d has zero max flow", i)
		}
	})
	prestepOps := 0
	for i := 0; i < k; i++ {
		if prestepErrs[i] != nil {
			return nil, 0, overlay.PlaneStats{}, prestepErrs[i]
		}
		prestepOps += perSessionOps[i]
		prestepPlane.Merge(perSessionPlane[i])
	}
	return betas, prestepOps, prestepPlane, nil
}

// buildPrestepSeeds groups p's plane-aware subproblems by initial length
// function and fills one seed plane per multi-subproblem group, writing each
// session's seed (nil when it has none) into seeds. Returns the seed-fill
// counters: one Rounds per seed, the computed union rows as Sources, and the
// group's total member count as Requests.
func buildPrestepSeeds(p *Problem, eps float64, workers int, seeds []*overlay.Plane) overlay.PlaneStats {
	var metrics overlay.PlaneStats
	// Group by (receivers, U): the two inputs of maxFlowDelta besides eps.
	type deltaKey struct{ receivers, u int }
	groups := make(map[deltaKey][]int)
	order := make([]deltaKey, 0, 4)
	for i, o := range p.Oracles {
		if _, ok := o.(overlay.PlaneOracle); !ok {
			return overlay.PlaneStats{} // mixed or fixed-routing: no seeding
		}
		key := deltaKey{receivers: p.Sessions[i].Receivers(), u: max(o.MaxRouteHops(), 1)}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	for _, key := range order {
		members := groups[key]
		if len(members) < 2 {
			continue // nothing to share
		}
		seed := overlay.NewPlane(p.G)
		requests := 0
		for _, i := range members {
			srcs := p.Oracles[i].(overlay.PlaneOracle).PlaneSources()
			requests += len(srcs)
			for _, s := range srcs {
				seed.Stage(s)
			}
		}
		if seed.NumSources() == 0 {
			continue
		}
		// The shared snapshot: the group's exact initial lengths. Each
		// subproblem's MaxFlow starts from NewLengthStore(g, delta) with the
		// same delta, so copied rows are bitwise what its own first-round
		// Dijkstras would produce.
		delta := maxFlowDelta(eps, key.receivers, key.u)
		seed.Fill(graph.NewLengths(p.G, delta), workers)
		for _, i := range members {
			seeds[i] = seed
		}
		metrics.Rounds++
		metrics.Sources += seed.NumSources()
		metrics.Requests += requests
	}
	return metrics
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
