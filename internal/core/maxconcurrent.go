package core

import (
	"fmt"
	"math"
	"math/bits"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// MaxConcurrentFlowOptions configures the Table III FPTAS.
type MaxConcurrentFlowOptions struct {
	// Epsilon is the error parameter; the returned concurrent ratio is
	// within (1-eps)^3 of the M2 optimum (the paper reports 1-3eps). Must
	// be in (0, 0.5].
	Epsilon float64
	// SolverOptions sets the worker-pool size and the shared SSSP plane mode
	// of every batched oracle round this solve runs: the beta prestep fans
	// its independent per-session maximum flows out across the workers (each
	// on one worker with its own plane), the phase loop fans each round of
	// pending-session oracle calls out to a persistent pool, and the surplus
	// pass inherits both.
	SolverOptions
	// SurplusPass, when set, routes additional MaxFlow-style traffic on the
	// residual capacities after the fair share is secured. The paper's
	// Table IV rates exceed lambda·dem(i) for the larger session, which is
	// exactly the behaviour of such a pass: max-min fairness first, then
	// capacity back-filling ("further lowering the rate of session 1 does
	// not help increasing the rate of session 2").
	SurplusPass bool
}

// mcfAnchor is the state of a logged MaxConcurrentFlow solve at the moment
// its phase loop stops, before the feasibility rescale: the seed a Warm
// allocator resumes from.
type mcfAnchor struct {
	gk     *gkState      // live ledger, pre-scale flows, application logs, D
	base   graph.Lengths // epoch-0 lengths delta/c_e
	dem    []float64     // final scaled per-phase demands
	phases int
}

// MCFRatioToEpsilon converts a target approximation ratio (e.g. 0.95) to the
// MaxConcurrentFlow epsilon with ratio = (1-eps)^3.
func MCFRatioToEpsilon(ratio float64) float64 {
	return 1 - math.Cbrt(ratio)
}

// MCFResult carries the MaxConcurrentFlow solution plus its diagnostics.
type MCFResult struct {
	*Solution
	// Lambda is min_i rate_i/dem(i) of the (pre-surplus) fair solution.
	Lambda float64
	// PrestepMSTOps counts the spanning-tree operations spent computing the
	// per-session maximum flows beta_i used for demand scaling — the second
	// running-time component reported in Table IV.
	PrestepMSTOps int
	// PrestepPlane sums the beta prestep subproblems' own plane counters
	// (each MaxFlow's fills and cross-round skips/repairs), kept apart from
	// Solution.Plane: a prestep subproblem has one session, whose
	// *within-batch* dedup is exactly 1.0, so folding these in would dilute
	// the phase loop's cross-session dedup ratio.
	PrestepPlane overlay.PlaneStats
	// Betas are the single-session maximum flow values.
	Betas []float64
}

// MaxConcurrentFlow runs the Table III FPTAS: phase-structured routing of
// each session's demand along successive minimum overlay spanning trees,
// with multiplicative length updates, demand pre-scaling via single-session
// maximum flows, and demand doubling when the optimum is still large
// (Sec. III-C). The returned solution is exactly feasible.
//
// Each phase is processed in rounds: every session with remaining (scaled)
// demand has its oracle evaluated against the round's length snapshot — the
// calls are independent given the lengths, so they fan out across the worker
// pool — and the resulting trees are applied in ascending session order,
// each routing up to its bottleneck capacity before the lengths move on.
// The reduction order is canonical, so outputs are a bit-identical function
// of the problem and epsilon for every worker count.
//
// A tree applied later in a round was minimum under the round snapshot, not
// necessarily under the lengths at its routing instant (earlier sessions in
// the round may have inflated shared edges by up to 1+eps each). Table III
// proper re-queries the oracle per routing step; the round-snapshot variant
// trades that per-step minimality for batchability, and its solutions
// therefore differ from the strictly sequential loop's for the same seed.
// The (1-3eps) bound is pinned empirically against the exact LP in
// TestMCFMatchesExactM2SmallInstances rather than inherited verbatim from
// the paper's analysis.
func MaxConcurrentFlow(p *Problem, opts MaxConcurrentFlowOptions) (*MCFResult, error) {
	res, _, err := maxConcurrentFlow(p, opts, false)
	return res, err
}

// maxConcurrentFlow is MaxConcurrentFlow that, when logged is set, also logs
// every tree application and returns the phase loop's terminal state as an
// anchor. The anchor's flows are the pre-scale raw flows; the returned
// Solution rescales its own copy. A logged solve skips the surplus pass,
// whose flows have no place in the anchor.
func maxConcurrentFlow(p *Problem, opts MaxConcurrentFlowOptions, logged bool) (*MCFResult, *mcfAnchor, error) {
	eps := opts.Epsilon
	if eps <= 0 || eps > 0.5 {
		return nil, nil, fmt.Errorf("core: MaxConcurrentFlow epsilon %v outside (0, 0.5]", eps)
	}
	k := p.K()
	// The phase loop fans each round of pending-session oracle calls out to
	// the persistent worker pool (per-worker scratch); the pool outlives all
	// phases, so goroutines and buffers are built exactly once per solve. It
	// is built first so the prestep fans out across the same resolved size.
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{Workers: opts.Workers, Plane: opts.Plane})
	defer runner.Close()
	workers := runner.Workers()

	// Pre-step: beta_i = single-session maximum flow, for demand scaling,
	// fanned out per session (prestep.go).
	betas, prestepOps, prestepPlane, err := prestepBetas(p, eps, workers, opts)
	if err != nil {
		return nil, nil, err
	}
	// zeta = min_i beta_i/dem(i) upper-bounds lambda*; scaling demands by
	// zeta/k puts the scaled optimum in [1, k].
	zeta := math.Inf(1)
	for i, s := range p.Sessions {
		if v := betas[i] / s.Demand; v < zeta {
			zeta = v
		}
	}
	dem := make([]float64, k)
	for i, s := range p.Sessions {
		dem[i] = s.Demand * zeta / float64(k)
	}

	m := p.G.NumEdges()
	// delta = (m/(1-eps))^(-1/eps), floored against float64 underflow at
	// extreme accuracy targets (see deltaFloor).
	delta := math.Pow(float64(m)/(1-eps), -1/eps)
	if delta < deltaFloor {
		delta = deltaFloor
	}
	vals := graph.NewLengths(p.G, 0)
	bigD := 0.0
	for e := range vals {
		vals[e] = delta / p.G.Edges[e].Capacity
		bigD += delta
	}
	var anchor *mcfAnchor
	if logged {
		anchor = &mcfAnchor{base: append(graph.Lengths(nil), vals...), dem: dem}
	}
	// The ledger wraps the initial assignment as its epoch-0 contents, so
	// every phase-loop inflation below is journaled as a monotone growth and
	// the plane's cross-round repair can skip untouched sources.
	gk := newGKState(p.G, eps, graph.NewLengthStoreFrom(vals), k, logged)
	gk.bigD = bigD

	budget := phaseBudget(m, eps)
	// At most ~log2(k)+1 doubling rounds of `budget` phases each.
	maxPhases := budget * (bits.Len(uint(k)) + 2)

	// One phase routes every session's scaled demand (see gkState.phase);
	// almost always each tree's bottleneck exceeds the scaled demand and a
	// phase is a single round.
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	phases := 0
	sinceDoubling := 0
	doublings := 0
	for gk.bigD < 1 {
		if phases >= maxPhases {
			return nil, nil, fmt.Errorf("core: MaxConcurrentFlow exceeded %d phases", maxPhases)
		}
		if sinceDoubling >= budget {
			// lambda_scaled > 2: double demands to halve it (Sec. III-C).
			for i := range dem {
				dem[i] *= 2
			}
			doublings++
			sinceDoubling = 0
			if doublings > bits.Len(uint(k))+8 {
				return nil, nil, fmt.Errorf("core: demand doubling diverged after %d rounds", doublings)
			}
		}
		if err := gk.phase(runner, all, dem, true); err != nil {
			return nil, nil, fmt.Errorf("core: MCF %w", err)
		}
		phases++
		sinceDoubling++
	}

	// Phase-loop counters only: the beta prestep's single-session planes
	// dedup exactly 1.0 by construction (members within a session are
	// distinct), so merging them here would drag the reported dedup factor
	// toward 1 and hide the cross-session sharing the metric exists to
	// surface. They are reported separately on MCFResult.PrestepPlane.
	sol := &Solution{G: p.G, Sessions: p.Sessions, Flows: gk.raw, MSTOps: gk.ops, Phases: phases, Plane: runner.Metrics()}
	if logged {
		// The anchor keeps the pre-scale flows: the warm allocator
		// accumulates further raw flow at this level and rescales to exact
		// feasibility itself on Snapshot.
		sol.Flows = make([][]TreeFlow, k)
		for i, fs := range gk.raw {
			sol.Flows[i] = append([]TreeFlow(nil), fs...)
		}
		anchor.gk, anchor.phases = gk, phases
	}
	// Exact feasibility scaling, uniform across sessions (preserves the
	// fairness ratios); upper-bounded by the Lemma 4 factor
	// log_{1+eps}(1/delta).
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	res := &MCFResult{Solution: sol, PrestepMSTOps: prestepOps, PrestepPlane: prestepPlane, Betas: betas}
	res.Lambda = sol.ConcurrentRatio()

	if opts.SurplusPass && !logged {
		if err := addSurplus(p, gk, sol, opts); err != nil {
			return nil, nil, err
		}
		sol.ScaleToFeasible()
	}
	return res, anchor, nil
}

// addSurplus runs a MaxFlow pass on the residual capacities left by sol and
// merges the extra flow into sol, whose Flows alias gk's raw flows. Edge
// identities are preserved because the residual graph has the same (sorted)
// edge set.
func addSurplus(p *Problem, gk *gkState, sol *Solution, opts MaxConcurrentFlowOptions) error {
	load := sol.LinkFlows()
	b := graph.NewBuilder(p.G.NumNodes())
	const floorCap = 1e-9 // builder requires positive capacities
	for e, edge := range p.G.Edges {
		residual := edge.Capacity - load[e]
		if residual < floorCap {
			residual = floorCap
		}
		if err := b.AddEdge(edge.U, edge.V, residual); err != nil {
			return fmt.Errorf("core: surplus residual graph: %w", err)
		}
	}
	rg := b.Build()
	rp, err := NewProblemWeighted(rg, p.Sessions, p.Mode, p.RouteWeights)
	if err != nil {
		return fmt.Errorf("core: surplus problem: %w", err)
	}
	extra, err := MaxFlow(rp, MaxFlowOptions{Epsilon: opts.Epsilon, SolverOptions: opts.SolverOptions})
	if err != nil {
		return fmt.Errorf("core: surplus pass: %w", err)
	}
	sol.MSTOps += extra.MSTOps
	sol.Plane.Merge(extra.Plane)
	// Trees from the residual problem reference identical edge ids; merging
	// through gk's index folds a repeated tree into its existing TreeFlow.
	for i, flows := range extra.Flows {
		for _, tf := range flows {
			if tf.Rate > 0 {
				gk.add(i, tf.Tree, tf.Rate)
			}
		}
	}
	return nil
}
