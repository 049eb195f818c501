package core

import (
	"fmt"
	"math"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// MaxFlowOptions configures the MaxFlow FPTAS.
type MaxFlowOptions struct {
	// Epsilon is the error parameter; the returned flow is within (1-eps)^2
	// of the M1 optimum (paper reports this as approximation ratio 1-2eps).
	// Must be in (0, 0.5].
	Epsilon float64
	// SolverOptions sets the worker-pool size the per-iteration k
	// spanning-tree computations fan out across, and the shared SSSP plane
	// mode.
	SolverOptions
}

// RatioToEpsilon converts a target approximation ratio r (e.g. 0.95) to the
// MaxFlow epsilon with ratio = (1-eps)^2.
func RatioToEpsilon(ratio float64) float64 {
	return 1 - math.Sqrt(ratio)
}

// deltaFloor bounds the Garg–Könemann initial length from below: the
// theoretical delta of both FPTAS variants underflows float64 for epsilon
// below roughly 0.01 on realistic instances, so it is clamped here. The
// clamp trades the *worst-case* guarantee at extreme accuracy targets for
// numerical sanity; all outputs remain exactly feasible.
const deltaFloor = 1e-280

// MaxFlow runs the Table I FPTAS on p and returns a feasible solution whose
// weighted objective is within (1-eps)^2 of the M1 optimum.
//
// Mechanics (Garg–Könemann): start with uniform small lengths d_e = delta;
// each iteration take the session tree minimizing the normalized length
// len(t)·(|Smax|-1)/(|S_i|-1), stop when that minimum reaches 1, otherwise
// saturate the tree's bottleneck min_e c_e/n_e(t) and inflate its edge
// lengths by (1 + eps·n_e·c/c_e). Finally rescale the accumulated raw flow
// to feasibility.
func MaxFlow(p *Problem, opts MaxFlowOptions) (*Solution, error) {
	sol, err := maxFlow(p, opts)
	if err != nil {
		return nil, err
	}
	// Lemma 2 scaling: dividing by log_{1+eps}((1+eps)/delta) is feasible;
	// dividing by the measured congestion is never worse and is exactly
	// feasible, so use it (it is upper-bounded by the lemma's factor).
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	return sol, nil
}

// maxFlowDelta is the initial length of MaxFlow on p. Lemma 3: delta =
// (1+eps)^(1-1/eps) / ((|Smax|-1)·U)^(1/eps). For extreme accuracy targets
// the formula underflows float64 (e.g. 48^-200 at eps=0.005), so it is
// floored at deltaFloor. A larger delta only stops the length-update loop
// earlier — the returned flow is still exactly feasible via the
// measured-congestion rescale, and the empirical gap is far below the
// requested eps (validated against the exact LP in tests).
func maxFlowDelta(p *Problem, eps float64) float64 {
	delta := math.Pow(1+eps, 1-1/eps) / math.Pow(float64(p.MaxReceivers)*float64(p.U), 1/eps)
	return max(delta, deltaFloor)
}

// maxFlow runs MaxFlow's loop and returns the unscaled (raw) flows.
func maxFlow(p *Problem, opts MaxFlowOptions) (*Solution, error) {
	eps := opts.Epsilon
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("core: MaxFlow epsilon %v outside (0, 0.5]", eps)
	}
	delta := maxFlowDelta(p, eps)

	gk := newGKState(p.G, eps, graph.NewLengthStore(p.G, delta), p.K())
	// One worker pool plus per-worker scratch for the whole run: the oracle
	// fan-out below executes every iteration, and rebuilding goroutines and
	// buffers each time used to dominate the solver's allocation profile.
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{
		Workers: opts.Workers,
		Plane:   opts.Plane,
	})
	defer runner.Close()

	// Lemma 1: at most |E|·log_{1+eps}((1+eps)/delta) augmentations.
	maxIter := int(float64(p.G.NumEdges())*(math.Log((1+eps)/delta)/math.Log(1+eps))) + 16

	iter := 0
	for ; iter < maxIter; iter++ {
		results := runner.MinTreesLen(gk.d, nil)
		gk.ops += p.K()
		best := -1
		bestNorm := math.Inf(1)
		for i, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("core: MaxFlow oracle %d: %w", i, r.Err)
			}
			norm := r.Len / p.Weight(i)
			if norm < bestNorm {
				bestNorm = norm
				best = i
			}
		}
		if bestNorm >= 1 {
			break
		}
		// Saturate the tree's bottleneck c = min_e c_e/n_e(t).
		t := results[best].Tree
		gk.apply(best, t, t.Bottleneck(p.G))
	}
	if iter >= maxIter {
		return nil, fmt.Errorf("core: MaxFlow did not converge within %d iterations", maxIter)
	}
	return &Solution{G: p.G, Sessions: p.Sessions, Flows: gk.raw, MSTOps: gk.ops, Plane: runner.Metrics()}, nil
}

// WeightedObjective returns the M1 objective Σ_i w_i·rate_i of a solution
// under problem p.
func WeightedObjective(p *Problem, s *Solution) float64 {
	total := 0.0
	for i := range p.Sessions {
		total += p.Weight(i) * s.SessionRate(i)
	}
	return total
}
