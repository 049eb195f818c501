package core

import (
	"fmt"
	"math"
	"sort"

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
//
// The demands are scaled by zeta = min_i beta_i/d_i alone, so only the
// minimizing beta matters; the others need only be shown to be larger. A
// caller that knows betas but none yet (a Warm allocator's first anchor, or
// its first after a Fault) asks for this bounded prestep: the sessions are
// ordered by an upper bound on beta_i/d_i, the first wave of
// prestepFirstWave sessions runs to completion, and its minimum beta/d is
// the threshold tau. Every other MaxFlow stops as soon as it proves its
// final beta/d above tau, and reports beta 0: it cannot set zeta, so the
// allocation is bitwise that of the unbounded prestep. The proof (see
// maxFlow) bounds from below the raw flow the full run would route, by weak
// duality on the Garg–Könemann dual objective D = Σ_e c_e·d_e and the
// feasible value of the flow routed so far, and divides that by the Lemma 2
// congestion bound; a run certified that way stops long before its raw flow
// alone would. The wave size is a constant, not the worker count, so which
// runs stop, and every counter, is the same for every pool size.

// prestepFirstWave is the number of sessions the bounded prestep runs to
// completion before it bounds the rest.
const prestepFirstWave = 2

// prestepBetas computes the per-session maximum flows of p. known, when
// non-nil, is aligned with p.Sessions: a positive entry is taken as that
// session's beta and its MaxFlow is not run. When known is non-nil but
// holds no positive entry and p has more than prestepFirstWave sessions,
// the prestep is bounded (see above) and a session whose MaxFlow was
// stopped gets beta 0. It returns the betas, the spanning-tree operations
// of the MaxFlows actually run (stopped ones included, up to their stop),
// and their plane counters merged in session order.
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
	perSessionOps := make([]int, k)
	perSessionPlane := make([]overlay.PlaneStats, k)
	prestepErrs := make([]error, k)
	// run computes the betas of ids, each MaxFlow stopped once its beta/d
	// provably exceeds tau (+Inf runs them all to completion).
	run := func(ids []int, tau float64) {
		ParallelFor(workers, len(ids), func(j int) {
			i := ids[j]
			mf, stopped, err := maxFlow(singleSessionProblem(p, i), MaxFlowOptions{
				Epsilon:       eps,
				SolverOptions: SolverOptions{Workers: 1, Plane: opts.Plane},
			}, tau*p.Sessions[i].Demand)
			if err != nil {
				prestepErrs[i] = fmt.Errorf("core: beta prestep session %d: %w", i, err)
				return
			}
			perSessionOps[i] = mf.MSTOps
			perSessionPlane[i] = mf.Plane
			if stopped {
				return
			}
			if cong := mf.MaxCongestion(); cong > 0 {
				mf.Scale(1 / cong)
			}
			if betas[i] = mf.SessionRate(0); betas[i] <= 0 {
				prestepErrs[i] = fmt.Errorf("core: session %d has zero max flow", i)
			}
		})
	}
	if known == nil || len(todo) < k || k <= prestepFirstWave {
		run(todo, math.Inf(1))
	} else {
		order := betaUpperBoundOrder(p)
		run(order[:prestepFirstWave], math.Inf(1))
		tau := math.Inf(1)
		for _, i := range order[:prestepFirstWave] {
			// A failed run leaves beta 0, so tau 0 stops the rest at once.
			tau = min(tau, betas[i]/p.Sessions[i].Demand)
		}
		run(order[prestepFirstWave:], tau)
	}
	prestepOps := 0
	var prestepPlane overlay.PlaneStats
	for _, i := range todo {
		if prestepErrs[i] != nil {
			return nil, 0, overlay.PlaneStats{}, prestepErrs[i]
		}
		prestepOps += perSessionOps[i]
		prestepPlane.Merge(perSessionPlane[i])
	}
	return betas, prestepOps, prestepPlane, nil
}

// betaUpperBoundOrder returns p's session indices ordered by an upper bound
// on beta_i/d_i, ties by index: every tree of session i leaves each member
// v over a link incident to v, so beta_i is at most the least total
// capacity incident to a member. Running the smallest bounds first makes it
// likely that the first wave holds the minimizing session.
func betaUpperBoundOrder(p *Problem) []int {
	ub := make([]float64, p.K())
	order := make([]int, p.K())
	for i, s := range p.Sessions {
		order[i] = i
		ub[i] = math.Inf(1)
		for _, v := range s.Members {
			incident := 0.0
			for _, e := range p.G.Adj(v) {
				incident += p.G.Edges[e].Capacity
			}
			ub[i] = min(ub[i], incident)
		}
		ub[i] /= s.Demand
	}
	sort.SliceStable(order, func(a, b int) bool { return ub[order[a]] < ub[order[b]] })
	return order
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
