package core

// AnchorSolve runs the logged solve behind a Warm cold anchor over p and
// returns its result with the demand-scale bracket zetaLo/k <= lambda* <=
// zetaHi its oracle round found.
func AnchorSolve(p *Problem, opts MaxConcurrentFlowOptions) (res *MCFResult, zetaLo, zetaHi float64, err error) {
	res, anchor, err := maxConcurrentFlow(p, opts, true)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, anchor.zetaLo, anchor.zetaHi, nil
}
