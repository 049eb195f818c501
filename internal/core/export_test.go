package core

import "overcast/internal/overlay"

// AnchorSolve runs the solve behind a Warm cold anchor over p and returns
// its result with the demand-scale bracket zetaLo/k <= lambda* <= zetaHi
// its oracle round found (see denseAnchor).
func AnchorSolve(p *Problem, opts MaxConcurrentFlowOptions) (res *MCFResult, zetaLo, zetaHi float64, err error) {
	res, anchor, err := denseAnchor(p, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, anchor.zetaLo, anchor.zetaHi, nil
}

// denseAnchor runs anchorSolve over every session of p (ids 0..k-1) on a
// fresh runner over p's oracles, and reports it as an MCFResult whose
// PrestepMSTOps are the scale round's k oracle calls.
func denseAnchor(p *Problem, opts MaxConcurrentFlowOptions) (*MCFResult, *mcfAnchor, error) {
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{Workers: opts.Workers, Plane: opts.Plane})
	defer runner.Close()
	ids := make([]int, p.K())
	for i := range ids {
		ids[i] = i
	}
	anchor, err := anchorSolve(p.G, runner, opts.Epsilon, p.Sessions, ids)
	if err != nil {
		return nil, nil, err
	}
	res := phaseResult(p, anchor.gk, anchor.phases)
	res.PrestepMSTOps = p.K()
	return res, anchor, nil
}

// phaseResult reports a phase loop's terminal state gk over every session
// of p as an MCFResult: a copy of the flows rescaled to exact feasibility,
// its concurrent ratio, and gk's dual bound and oracle calls. gk is left
// untouched.
func phaseResult(p *Problem, gk *gkState, phases int) *MCFResult {
	sol := &Solution{G: p.G, Sessions: p.Sessions, Flows: make([][]TreeFlow, p.K()), MSTOps: gk.ops, Phases: phases}
	for i, fs := range gk.raw {
		sol.Flows[i] = append([]TreeFlow(nil), fs...)
	}
	if cong := sol.MaxCongestion(); cong > 0 {
		sol.Scale(1 / cong)
	}
	res := &MCFResult{Solution: sol, Lambda: sol.ConcurrentRatio(), DualBound: gk.dualBound}
	res.Certified = res.Lambda / res.DualBound
	return res
}
