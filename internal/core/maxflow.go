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
	sol, _, err := maxFlow(p, opts, math.Inf(1))
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

// lemma2Bound is L = log_{1+eps}((1+eps)/delta), the Lemma 2 bound on the
// raw congestion MaxFlow ends with. Every tree it routes has normalized
// length below 1, so each of its edges is below 1 before the bump and below
// 1+eps after it; a relative load x <= 1 multiplies a length by 1+eps·x >=
// (1+eps)^x, so an edge of congestion x_e ends at least delta·(1+eps)^x_e.
// Hence every x_e < L, and the rescaled value of a run that ends having
// routed raw flow F_T is at least F_T/L. maxFlow's early stop proves a
// lower bound on F_T and divides it by L.
func lemma2Bound(eps, delta float64) float64 {
	return math.Log((1+eps)/delta) / math.Log(1+eps)
}

// stopMargin is the relative slack of maxFlow's early stop over the bound
// it proves. The proof holds in exact arithmetic; the loop computes it from
// floats: L, the accumulated dual objective D (one rounded update per edge
// bump), the running congestion C_t (rounded sums of loads) and the
// logarithm. Each is off by a relative error many orders of magnitude
// below the margin, so a run the margin lets stop is one whose exact bound
// exceeds stopAbove.
const stopMargin = 1e-6

// maxFlow runs MaxFlow's loop and returns the unscaled (raw) flows. With a
// finite stopAbove, which only single-session problems may pass, it may
// stop early, reporting stopped, once it proves that the rescaled value of
// the full run exceeds stopAbove, so a caller that needs the value only
// when it is at most stopAbove can drop it. The proof is a lower bound on
// the raw flow F_T the full run would route, divided by the Lemma 2 bound L
// (see lemma2Bound). After each step, with routed raw flow F_t, dual
// objective D_t = Σ_e c_e·d_e and maximum raw congestion C_t, the flow
// rescaled by C_t is feasible, so b = F_t/C_t <= beta*, the optimum. Weak
// duality gives beta* <= D/alpha under any lengths whose minimum tree
// length is alpha; the run ends only once alpha >= 1, so D_T >= beta*; and
// a step routing c grows D by eps·c·alpha <= eps·c·D/beta*, so D_T <=
// D_t·exp(eps·(F_T-F_t)/beta*). Together, F_T >= F_t +
// (beta*/eps)·ln(beta*/D_t), which is increasing in beta* once beta* > D_t,
// so F_T >= F_t + (b/eps)·ln(b/D_t) whenever b > D_t, and F_T >= F_t always.
// The run stops once that bound exceeds stopAbove·L·(1+stopMargin). A
// stopped run returns its partial flows, MSTOps and plane counters; a run
// that is not stopped is bitwise MaxFlow's before the rescale.
func maxFlow(p *Problem, opts MaxFlowOptions, stopAbove float64) (*Solution, bool, error) {
	eps := opts.Epsilon
	if eps <= 0 || eps > 0.5 {
		return nil, false, fmt.Errorf("core: MaxFlow epsilon %v outside (0, 0.5]", eps)
	}
	delta := maxFlowDelta(p, eps)
	bound := lemma2Bound(eps, delta)
	stopAt := stopAbove * bound * (1 + stopMargin)

	gk := newGKState(p.G, eps, graph.NewLengthStore(p.G, delta), p.K(), false)
	for _, e := range p.G.Edges {
		gk.bigD += delta * e.Capacity
	}
	// load is the raw flow per edge and cong the maximum raw congestion,
	// kept only for the early stop's feasible value b. The stop's duality
	// argument takes the tree length as the normalized length, which holds
	// only for weight 1: a single session.
	var load []float64
	cong := 0.0
	if !math.IsInf(stopAbove, 1) {
		if p.K() != 1 {
			panic(fmt.Sprintf("core: bounded maxFlow on %d sessions, want 1", p.K()))
		}
		load = make([]float64, p.G.NumEdges())
	}
	// One worker pool plus per-worker scratch for the whole run: the oracle
	// fan-out below executes every iteration, and rebuilding goroutines and
	// buffers each time used to dominate the solver's allocation profile.
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{
		Workers: opts.Workers,
		Plane:   opts.Plane,
	})
	defer runner.Close()
	result := func() *Solution {
		return &Solution{G: p.G, Sessions: p.Sessions, Flows: gk.raw, MSTOps: gk.ops, Plane: runner.Metrics()}
	}

	// Lemma 1: at most |E|·log_{1+eps}((1+eps)/delta) augmentations.
	maxIter := int(float64(p.G.NumEdges())*bound) + 16

	routed := 0.0
	iter := 0
	for ; iter < maxIter; iter++ {
		results := runner.MinTreesLen(gk.d, nil)
		gk.ops += p.K()
		best := -1
		bestNorm := math.Inf(1)
		for i, r := range results {
			if r.Err != nil {
				return nil, false, fmt.Errorf("core: MaxFlow oracle %d: %w", i, r.Err)
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
		c := t.Bottleneck(p.G)
		gk.apply(best, t, c)
		routed += c
		if load == nil {
			continue
		}
		for _, use := range t.Use() {
			load[use.Edge] += float64(use.Count) * c
			cong = max(cong, load[use.Edge]/p.G.Edges[use.Edge].Capacity)
		}
		finalAtLeast := routed
		if b := routed / cong; b > gk.bigD {
			finalAtLeast += b / eps * math.Log(b/gk.bigD)
		}
		if finalAtLeast > stopAt {
			return result(), true, nil
		}
	}
	if iter >= maxIter {
		return nil, false, fmt.Errorf("core: MaxFlow did not converge within %d iterations", maxIter)
	}
	return result(), false, nil
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
