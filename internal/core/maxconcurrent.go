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
	// pass inherits both. A Warm anchor takes its knobs from
	// WarmOptions.SolverOptions instead, on the allocator's own runner.
	SolverOptions
	// SurplusPass, when set, routes additional MaxFlow-style traffic on the
	// residual capacities after the fair share is secured. The paper's
	// Table IV rates exceed lambda·dem(i) for the larger session, which is
	// exactly the behaviour of such a pass: max-min fairness first, then
	// capacity back-filling ("further lowering the rate of session 1 does
	// not help increasing the rate of session 2").
	SurplusPass bool
}

// mcfAnchor is a Warm cold anchor's phase loop at the moment it stops,
// before the feasibility rescale: the state warm repair resumes from. Its
// slices are indexed like the sessions the anchor was solved over.
type mcfAnchor struct {
	gk     *gkState      // live ledger, pre-scale flows, application logs, D
	base   graph.Lengths // epoch-0 lengths delta/c_e
	dem    []float64     // final scaled per-phase demands
	phases int
	// lambda is the concurrent ratio the flows reach once rescaled to exact
	// feasibility; lambda/gk.dualBound is the anchor's certified ratio.
	lambda float64
	// zetaLo and zetaHi bracket the demand scale: zetaLo/k <= lambda* <=
	// zetaHi (see anchorSolve).
	zetaLo, zetaHi float64
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
	// DualBound is the least weak-duality upper bound on the M2 optimum
	// lambda* the phase loop met: D/Σ_i dem(i)·len_i under the lengths at
	// the start of each phase, with len_i the length of the minimum tree
	// the phase's first round drew for session i (see gkState.dualBound).
	DualBound float64
	// Certified is Lambda/DualBound: a checked lower bound on
	// Lambda/lambda*, and so on the solve's approximation ratio.
	Certified float64
	// PrestepMSTOps counts the spanning-tree operations spent setting the
	// demand scale — the second running-time component reported in Table
	// IV. The public MaxConcurrentFlow runs the paper's prestep, one
	// single-session maximum flow per session; a Warm anchor spends one
	// oracle round, k calls (see anchorSolve).
	PrestepMSTOps int
	// PrestepPlane sums the beta prestep subproblems' own plane counters
	// (each MaxFlow's fills and cross-round skips/repairs), kept apart from
	// Solution.Plane: a prestep subproblem has one session, whose
	// *within-batch* dedup is exactly 1.0, so folding these in would dilute
	// the phase loop's cross-session dedup ratio.
	PrestepPlane overlay.PlaneStats
	// Betas are the single-session maximum flow values of the public
	// MaxConcurrentFlow's prestep; nil for a Warm anchor, which runs none.
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
	eps := opts.Epsilon
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("core: MaxConcurrentFlow epsilon %v outside (0, 0.5]", eps)
	}
	k := p.K()
	// The phase loop fans each round of pending-session oracle calls out to
	// the persistent worker pool (per-worker scratch); the pool outlives all
	// phases, so goroutines and buffers are built exactly once per solve. It
	// is built first so the prestep fans out across the same resolved size.
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{Workers: opts.Workers, Plane: opts.Plane})
	defer runner.Close()

	// Pre-step: beta_i = single-session maximum flow, for demand scaling,
	// fanned out over the sessions (prestep.go).
	betas, prestepOps, prestepPlane, err := prestepBetas(p, eps, runner.Workers(), opts)
	if err != nil {
		return nil, err
	}
	// zeta = min_i beta_i/dem(i) upper-bounds lambda*; scaling demands by
	// zeta/k puts the scaled optimum in [1, k].
	zeta := math.Inf(1)
	for i, s := range p.Sessions {
		zeta = min(zeta, betas[i]/s.Demand)
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	gk := newMCFState(p.G, eps, p.Sessions, ids)
	_, phases, err := mcfPhases(runner, gk, p.Sessions, ids, zeta, float64(k))
	if err != nil {
		return nil, err
	}
	// The solution's flows alias gk's, so the surplus pass below merges into
	// the rescaled fair solution through gk's index.
	sol := &Solution{G: p.G, Sessions: p.Sessions, Flows: gk.raw, MSTOps: gk.ops, Phases: phases, Plane: runner.Metrics()}
	// Exact feasibility scaling, uniform across sessions (preserves the
	// fairness ratios); upper-bounded by the Lemma 4 factor
	// log_{1+eps}(1/delta).
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	res := &MCFResult{Solution: sol, Lambda: sol.ConcurrentRatio(), DualBound: gk.dualBound}
	res.Certified = res.Lambda / res.DualBound
	// Phase-loop counters only: the beta prestep's single-session planes
	// dedup exactly 1.0 by construction (members within a session are
	// distinct), so merging them here would drag the reported dedup factor
	// toward 1 and hide the cross-session sharing the metric exists to
	// surface. They are reported separately on MCFResult.PrestepPlane.
	res.PrestepMSTOps, res.PrestepPlane, res.Betas = prestepOps, prestepPlane, betas
	if opts.SurplusPass {
		if err := addSurplus(p, gk, res.Solution, opts); err != nil {
			return nil, err
		}
		res.ScaleToFeasible()
	}
	return res, nil
}

// anchorSolve is the solve behind a Warm cold anchor, over the sessions
// named by ids (ascending; oracle ids on runner and indices into sessions,
// whose other entries it ignores). It logs every tree application and runs
// no surplus pass, whose flows have no place in an anchor. The beta prestep
// exists only to pick the demand scale zeta, and any zeta in a bracket
// around lambda* does that job, so an anchor takes it from one oracle round
// under the epoch-0 lengths delta/c_e, proportional to 1/c_e:
//   - zetaHi = min_i D_0/(dem(i)·len_i), with D_0 = Σ_e c_e·(delta/c_e), is
//     a weak-duality upper bound on lambda* (the oracle's tree is the
//     minimum one);
//   - zetaLo = min_i b_i/dem(i), with b_i the bottleneck of session i's
//     tree: routing every session i at b_i/k at once is feasible, so
//     lambda* >= zetaLo/k.
//
// It scales by their geometric mean. The scaled optimum then lies in
// [zetaLo/zeta, k·zetaHi/zeta], which may reach below 1, outside the
// paper's regime; an anchor that certifies below (1-eps)^3 therefore reruns
// once at zeta = zetaLo, where it is at least 1. The scale round's k oracle
// calls are not in gk.ops; a discarded first run's calls are.
func anchorSolve(g *graph.Graph, runner *overlay.BatchRunner, eps float64, sessions []*overlay.Session, ids []int) (*mcfAnchor, error) {
	k := len(ids)
	gk := newMCFState(g, eps, sessions, ids)
	a := &mcfAnchor{base: append(graph.Lengths(nil), gk.d.Values()...), zetaLo: math.Inf(1), zetaHi: math.Inf(1)}
	for j, r := range runner.MinTreesLen(gk.d, ids) {
		if r.Err != nil {
			return nil, fmt.Errorf("core: MCF scale oracle %d: %w", ids[j], r.Err)
		}
		d := sessions[ids[j]].Demand
		a.zetaLo = min(a.zetaLo, r.Tree.Bottleneck(g)/d)
		a.zetaHi = min(a.zetaHi, gk.bigD/(d*r.Len))
	}
	run := func(gk *gkState, zeta float64) (err error) {
		gk.logs = make([]applyLog, len(sessions))
		a.gk = gk
		if a.dem, a.phases, err = mcfPhases(runner, gk, sessions, ids, zeta, float64(k)*a.zetaHi/zeta); err == nil {
			a.lambda = feasibleRatio(gk, sessions, ids)
		}
		return err
	}
	zeta := math.Sqrt(a.zetaLo * a.zetaHi)
	if err := run(gk, zeta); err != nil {
		return nil, err
	}
	if a.lambda/gk.dualBound < math.Pow(1-eps, 3) && zeta > a.zetaLo {
		if err := run(newMCFState(g, eps, sessions, ids), a.zetaLo); err != nil {
			return nil, err
		}
		// Any lengths give a valid bound, the discarded run's included.
		a.gk.ops += gk.ops
		a.gk.dualBound = min(a.gk.dualBound, gk.dualBound)
	}
	return a, nil
}

// feasibleRatio returns min_i rate_i/dem(i) over ids once gk's raw flows are
// rescaled to exact feasibility: bitwise the ConcurrentRatio of a rescaled
// copy, without making one.
func feasibleRatio(gk *gkState, sessions []*overlay.Session, ids []int) float64 {
	factor := 1.0
	if cong := (&Solution{G: gk.g, Flows: gk.raw}).MaxCongestion(); cong > 0 {
		factor = 1 / cong
	}
	ratio := math.Inf(1)
	for _, i := range ids {
		total := 0.0
		for _, tf := range gk.raw[i] {
			total += tf.Rate * factor
		}
		ratio = min(ratio, total/sessions[i].Demand)
	}
	return ratio
}

// newMCFState returns the Garg–Könemann state a phase loop over the sessions
// ids starts from, indexed like sessions: the epoch-0 lengths delta/c_e and
// ids' demands as the dual-bound weights. The ledger wraps the initial
// assignment as its epoch-0 contents, so every phase-loop inflation is
// journaled as a monotone growth and the plane's cross-round repair can skip
// untouched sources.
func newMCFState(g *graph.Graph, eps float64, sessions []*overlay.Session, ids []int) *gkState {
	// delta = (m/(1-eps))^(-1/eps), floored against float64 underflow at
	// extreme accuracy targets (see deltaFloor).
	delta := math.Pow(float64(g.NumEdges())/(1-eps), -1/eps)
	if delta < deltaFloor {
		delta = deltaFloor
	}
	vals := graph.NewLengths(g, 0)
	bigD := 0.0
	for e := range vals {
		vals[e] = delta / g.Edges[e].Capacity
		bigD += delta
	}
	gk := newGKState(g, eps, graph.NewLengthStoreFrom(vals), len(sessions))
	gk.bigD = bigD
	gk.cert = make([]float64, len(sessions))
	for _, i := range ids {
		gk.cert[i] = sessions[i].Demand
	}
	gk.dualBound = math.Inf(1)
	return gk
}

// mcfPhases runs the Table III phase loop from gk over the sessions ids
// (oracle ids on runner), with demands scaled by zeta/k, given scaledUB >=
// lambda*·k/zeta, an upper bound on the scaled optimum. It leaves the
// pre-scale flows in gk and returns the final scaled per-phase demands,
// indexed like sessions, and the phase count.
func mcfPhases(runner *overlay.BatchRunner, gk *gkState, sessions []*overlay.Session, ids []int, zeta, scaledUB float64) ([]float64, int, error) {
	k := len(ids)
	dem := make([]float64, len(sessions))
	for _, i := range ids {
		dem[i] = sessions[i].Demand * zeta / float64(k)
	}
	budget := phaseBudget(gk.g.NumEdges(), gk.eps)
	// Each doubling round of `budget` phases at least halves the scaled
	// optimum until it is at most 2, so about log2(scaledUB)+1 rounds.
	rounds := bits.Len(uint(math.Ceil(scaledUB)))
	maxPhases := budget * (rounds + 2)

	// One phase routes every session's scaled demand (see gkState.phase);
	// almost always each tree's bottleneck exceeds the scaled demand and a
	// phase is a single round.
	phases := 0
	sinceDoubling := 0
	doublings := 0
	for gk.bigD < 1 {
		if phases >= maxPhases {
			return nil, 0, fmt.Errorf("core: MaxConcurrentFlow exceeded %d phases", maxPhases)
		}
		if sinceDoubling >= budget {
			// lambda_scaled > 2: double demands to halve it (Sec. III-C).
			for i := range dem {
				dem[i] *= 2
			}
			doublings++
			sinceDoubling = 0
			if doublings > rounds+8 {
				return nil, 0, fmt.Errorf("core: demand doubling diverged after %d rounds", doublings)
			}
		}
		if err := gk.phase(runner, ids, dem, true); err != nil {
			return nil, 0, fmt.Errorf("core: MCF %w", err)
		}
		phases++
		sinceDoubling++
	}
	return dem, phases, nil
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
