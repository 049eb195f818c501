package core

import (
	"fmt"
	"math"

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
	// its independent per-session maximum flows and seed planes out across
	// the workers, the phase loop fans each round of pending-session oracle
	// calls out to a persistent pool, and the surplus pass inherits both.
	SolverOptions
	// SurplusPass, when set, routes additional MaxFlow-style traffic on the
	// residual capacities after the fair share is secured. The paper's
	// Table IV rates exceed lambda·dem(i) for the larger session, which is
	// exactly the behaviour of such a pass: max-min fairness first, then
	// capacity back-filling ("further lowering the rate of session 1 does
	// not help increasing the rate of session 2").
	SurplusPass bool
	// SurplusEpsilon is the epsilon for the surplus pass (default: Epsilon).
	SurplusEpsilon float64
	// MaxPhases overrides the phase safety bound (0 = automatic).
	MaxPhases int

	// capture, when non-nil, receives the solve's internal state at the
	// moment the phase loop stops (before the feasibility rescale): the live
	// length ledger, the epoch-0 base lengths, the pre-scale per-session
	// flows, the per-session tree application logs, the final scaled
	// demands, the dual objective D, and the phase count. It is the
	// seed a Warm allocator resumes from; package-internal because the
	// captured ledger aliases live solver state. Incompatible with
	// SurplusPass (the surplus flows have no bump attribution).
	capture *warmCapture
}

// bumpFactor is the multiplicative length update 1+ε·n·c/c_e of an edge with
// capacity ce that a tree crossing it n times applies when routing rate c.
// The phase loops and the warm rollback replay both call it, so a replayed
// factor is bitwise the one the loop applied.
func bumpFactor(eps float64, n int, c, ce float64) float64 {
	return 1 + eps*float64(n)*c/ce
}

// treeApply is one tree application in a session's applyLog: the tree's
// edge multiplicities are arena[off:off+n], and it routed rate.
type treeApply struct {
	off, n int32
	rate   float64
}

// applyLog records how one session inflated the lengths, so a warm allocator
// can roll its bumps back exactly on Leave: one treeApply per tree the
// session routed, in application order, over an arena that stores each
// distinct raw tree's Use() once, in first-use order. The log holds no
// pointers, and its size grows with tree applications, not with the edges
// they touch.
type applyLog struct {
	arena []overlay.EdgeUse
	offs  []int32 // raw flow position -> arena offset of its tree's Use()
	apps  []treeApply
}

// record logs that the session routed rate on tree t, held at position pos
// of its raw flows (pos == len(offs) for a tree new to the session).
func (l *applyLog) record(pos int, t *overlay.Tree, rate float64) {
	use := t.Use()
	if pos == len(l.offs) {
		l.offs = append(l.offs, int32(len(l.arena)))
		l.arena = append(l.arena, use...)
	}
	l.apps = append(l.apps, treeApply{off: l.offs[pos], n: int32(len(use)), rate: rate})
}

// warmCapture receives a MaxConcurrentFlow run's internal state; see
// MaxConcurrentFlowOptions.capture.
type warmCapture struct {
	ledger *graph.LengthStore
	base   graph.Lengths // epoch-0 lengths delta/c_e
	raw    [][]TreeFlow  // pre-scale flows (Tree pointers shared with the Solution)
	logs   []applyLog    // per session
	dem    []float64     // final scaled per-phase demands
	bigD   float64       // dual objective at stop
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
	// PrestepPlane aggregates the beta prestep's plane counters — the
	// cross-subproblem seed fills (Rounds/Sources/Requests of the seed
	// planes), each subproblem's seed copies (Seeded) and cross-round
	// repair skips (Skipped/Repaired) — kept apart from
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
	eps := opts.Epsilon
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("core: MaxConcurrentFlow epsilon %v outside (0, 0.5]", eps)
	}
	if opts.capture != nil && opts.SurplusPass {
		return nil, fmt.Errorf("core: MaxConcurrentFlow capture is incompatible with the surplus pass")
	}
	k := p.K()
	// The phase loop fans each round of pending-session oracle calls out to
	// the persistent worker pool (per-worker scratch); the pool outlives all
	// phases, so goroutines and buffers are built exactly once per solve. It
	// is built first so the prestep fans out across the same resolved size.
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{Workers: opts.Workers, Plane: opts.Plane})
	defer runner.Close()
	workers := runner.Workers()

	// Pre-step: beta_i = single-session maximum flow, for demand scaling.
	// See prestep.go for the batched formulation (cross-subproblem seed
	// plane + per-subproblem persistent planes).
	betas, prestepOps, prestepPlane, err := prestepBetas(p, eps, workers, opts)
	if err != nil {
		return nil, err
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

	m := float64(p.G.NumEdges())
	// delta = (m/(1-eps))^(-1/eps), floored against float64 underflow at
	// extreme accuracy targets (see deltaFloor).
	delta := math.Pow(m/(1-eps), -1/eps)
	if delta < deltaFloor {
		delta = deltaFloor
	}
	vals := graph.NewLengths(p.G, 0)
	bigD := 0.0 // D = sum_e c_e d_e, the dual objective / stop criterion
	for e := range vals {
		vals[e] = delta / p.G.Edges[e].Capacity
		bigD += delta
	}
	// The ledger wraps the initial assignment as its epoch-0 contents, so
	// every phase-loop inflation below is journaled as a monotone growth and
	// the plane's cross-round repair can skip untouched sources.
	if opts.capture != nil {
		opts.capture.base = append(graph.Lengths(nil), vals...)
		opts.capture.logs = make([]applyLog, k)
	}
	d := graph.NewLengthStoreFrom(vals)

	acc := newFlowAccumulator(p)
	// Phase budget per doubling round (Lemma 6): t <= 1 + lambda·log_{1+eps}(1/delta)
	// with log_{1+eps}(1/delta) = (1/eps)·log_{1+eps}(m/(1-eps)); the
	// algorithm must stop within T = 2·log_{1+eps}(1/delta) phases while
	// lambda_scaled <= 2 (allowing slack for the approximate betas).
	budget := int(2.5*math.Log(m/(1-eps))/math.Log(1+eps)/eps) + 2
	maxPhases := opts.MaxPhases
	if maxPhases == 0 {
		// At most ~log2(k)+1 doubling rounds of `budget` phases each.
		maxPhases = budget * (bits(k) + 2)
	}

	rem := make([]float64, k)
	pending := make([]int, 0, k)
	phases := 0
	sinceDoubling := 0
	doublings := 0
	for bigD < 1 {
		if phases >= maxPhases {
			return nil, fmt.Errorf("core: MaxConcurrentFlow exceeded %d phases", maxPhases)
		}
		if sinceDoubling >= budget {
			// lambda_scaled > 2: double demands to halve it (Sec. III-C).
			for i := range dem {
				dem[i] *= 2
			}
			doublings++
			sinceDoubling = 0
			if doublings > bits(k)+8 {
				return nil, fmt.Errorf("core: demand doubling diverged after %d rounds", doublings)
			}
		}
		// One phase: route every session's scaled demand. Each round batches
		// the pending sessions' min-tree computations against the current
		// lengths, then applies them in ascending session order; a session
		// whose tree bottleneck is below its remaining demand stays pending
		// and gets a fresh tree (under the moved lengths) next round. Almost
		// always the bottleneck exceeds the scaled demand and a phase is a
		// single round.
		pending = pending[:0]
		for i := 0; i < k; i++ {
			rem[i] = dem[i]
			pending = append(pending, i)
		}
		for len(pending) > 0 && bigD < 1 {
			results := runner.MinTrees(d, pending)
			acc.sol.MSTOps += len(pending)
			// next reuses pending's backing array: position pos is read
			// before any write can reach index pos (one append per
			// processed position), so the in-place filter is safe.
			next := pending[:0]
			for pos := 0; pos < len(pending) && bigD < 1; pos++ {
				i := pending[pos]
				if results[pos].Err != nil {
					return nil, fmt.Errorf("core: MCF oracle %d: %w", i, results[pos].Err)
				}
				t := results[pos].Tree
				c := rem[i]
				for _, use := range t.Use() {
					if v := p.G.Edges[use.Edge].Capacity / float64(use.Count); v < c {
						c = v
					}
				}
				pos := acc.add(i, t, c)
				rem[i] -= c
				for _, use := range t.Use() {
					ce := p.G.Edges[use.Edge].Capacity
					grow := bumpFactor(eps, use.Count, c, ce)
					bigD += ce * d.At(use.Edge) * (grow - 1)
					d.Bump(use.Edge, grow)
				}
				if opts.capture != nil {
					opts.capture.logs[i].record(pos, t, c)
				}
				if rem[i] > 1e-15 {
					next = append(next, i)
				}
			}
			pending = next
		}
		phases++
		sinceDoubling++
	}

	sol := acc.sol
	sol.Phases = phases
	// Phase-loop counters only: the beta prestep's single-session planes
	// dedup exactly 1.0 by construction (members within a session are
	// distinct), so merging them here would drag the reported dedup factor
	// toward 1 and hide the cross-session sharing the metric exists to
	// surface. They are reported separately on MCFResult.PrestepPlane.
	sol.Plane = runner.Metrics()
	if c := opts.capture; c != nil {
		// Pre-scale flows: the warm allocator accumulates further raw flow at
		// this level and rescales to exact feasibility itself on Snapshot.
		c.raw = make([][]TreeFlow, k)
		for i, fs := range sol.Flows {
			c.raw[i] = append([]TreeFlow(nil), fs...)
		}
		c.ledger, c.dem, c.bigD, c.phases = d, dem, bigD, phases
	}
	// Exact feasibility scaling, uniform across sessions (preserves the
	// fairness ratios); upper-bounded by the Lemma 4 factor
	// log_{1+eps}(1/delta).
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	res := &MCFResult{Solution: sol, PrestepMSTOps: prestepOps, PrestepPlane: prestepPlane, Betas: betas}
	res.Lambda = sol.ConcurrentRatio()

	if opts.SurplusPass {
		seps := opts.SurplusEpsilon
		if seps == 0 {
			seps = eps
		}
		if err := addSurplus(p, sol, seps, opts); err != nil {
			return nil, err
		}
		sol.ScaleToFeasible()
	}
	return res, nil
}

// addSurplus runs a MaxFlow pass on the residual capacities left by sol and
// merges the extra flow into sol. Edge identities are preserved because the
// residual graph has the same (sorted) edge set.
func addSurplus(p *Problem, sol *Solution, eps float64, opts MaxConcurrentFlowOptions) error {
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
	extra, err := MaxFlow(rp, MaxFlowOptions{Epsilon: eps, SolverOptions: opts.SolverOptions})
	if err != nil {
		return fmt.Errorf("core: surplus pass: %w", err)
	}
	sol.MSTOps += extra.MSTOps
	sol.Plane.Merge(extra.Plane)
	// Trees from the residual problem reference identical edge ids; merge.
	acc := &flowAccumulator{sol: sol, index: make([]map[uint64]int, len(sol.Flows))}
	for i := range acc.index {
		acc.index[i] = make(map[uint64]int, len(sol.Flows[i]))
		for pos, tf := range sol.Flows[i] {
			acc.index[i][tf.Tree.KeyHash()] = pos
		}
	}
	for i, flows := range extra.Flows {
		for _, tf := range flows {
			if tf.Rate > 0 {
				acc.add(i, tf.Tree, tf.Rate)
			}
		}
	}
	return nil
}

func bits(k int) int {
	b := 0
	for v := k; v > 0; v >>= 1 {
		b++
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
