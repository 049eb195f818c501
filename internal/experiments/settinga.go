// Package experiments regenerates every table and figure of the paper's
// evaluation. Setting A (this file) is the Sec. III-B environment: a
// 100-node BRITE-style Waxman router topology with uniform capacity 100 and
// two multicast sessions (7 and 5 members, both with demand 100). Setting B
// (settingb.go) is the Sec. VI two-level AS/router grid sweep.
//
// Absolute numbers differ from the paper's (its BRITE seed was never
// published); the harness reproduces the *shapes*: monotonicity in the
// approximation ratio, tree-count growth, fairness shifts, asymmetric rate
// distributions, and the ~1% impact of IP routing.
package experiments

import (
	"fmt"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/stats"
	"overcast/internal/topology"
)

// PaperRatios are the approximation ratios swept by Tables II/IV/VII/VIII.
var PaperRatios = []float64{0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99}

// SettingA is the Sec. III-B experimental environment.
type SettingA struct {
	Seed     uint64
	Net      *topology.Network
	Sessions []*overlay.Session
	// ProblemIP and ProblemArb share the network and sessions but differ in
	// routing mode.
	ProblemIP  *core.Problem
	ProblemArb *core.Problem
	// SolverOptions sets every solve's oracle worker-pool size (0 keeps the
	// solver sequential; the sweeps already parallelize across rows/trials)
	// and plane mode. Results are bit-identical for every value.
	core.SolverOptions
}

// SettingAConfig allows scaling the environment down for tests and benches.
type SettingAConfig struct {
	Nodes        int   // topology size (paper: 100)
	SessionSizes []int // paper: {7, 5}
	Demand       float64
	Capacity     float64
}

// DefaultSettingA returns the paper's Sec. III-B parameters.
func DefaultSettingA() SettingAConfig {
	return SettingAConfig{Nodes: 100, SessionSizes: []int{7, 5}, Demand: 100, Capacity: 100}
}

// NewSettingA builds the environment deterministically from a seed.
func NewSettingA(seed uint64, cfg SettingAConfig) (*SettingA, error) {
	if cfg.Nodes < 4 {
		return nil, fmt.Errorf("experiments: setting A needs >=4 nodes, got %d", cfg.Nodes)
	}
	r := rng.New(seed)
	wax := topology.DefaultWaxman(cfg.Nodes)
	if cfg.Capacity > 0 {
		wax.Capacity = cfg.Capacity
	}
	net, err := topology.Waxman(wax, r.Split(0))
	if err != nil {
		return nil, err
	}
	memberRNG := r.Split(1)
	total := 0
	for _, sz := range cfg.SessionSizes {
		total += sz
	}
	if total > cfg.Nodes {
		return nil, fmt.Errorf("experiments: %d session members exceed %d nodes", total, cfg.Nodes)
	}
	perm := memberRNG.Perm(cfg.Nodes)
	var sessions []*overlay.Session
	off := 0
	for i, sz := range cfg.SessionSizes {
		s, err := overlay.NewSession(i, perm[off:off+sz], cfg.Demand)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		off += sz
	}
	// Fixed IP routes follow BRITE's propagation-delay metric (Euclidean
	// link lengths), matching the paper's "shortest-path routing".
	delays := net.LinkDelays()
	pIP, err := core.NewProblemWeighted(net.Graph, sessions, core.RoutingIP, delays)
	if err != nil {
		return nil, err
	}
	pArb, err := core.NewProblemWeighted(net.Graph, sessions, core.RoutingArbitrary, delays)
	if err != nil {
		return nil, err
	}
	return &SettingA{Seed: seed, Net: net, Sessions: sessions, ProblemIP: pIP, ProblemArb: pArb}, nil
}

// FlowRow is one column of Table II/VII.
type FlowRow struct {
	Ratio        float64
	SessionRates []float64
	Throughput   float64
	TreeCounts   []int
	MSTOps       int
}

// MaxFlowSweep runs MaxFlow at each approximation ratio (Table II with IP
// routing, Table VII with arbitrary routing) and returns the rows plus the
// full solutions (inputs to Figs. 2/7 and 4a/9a). Ratios map to epsilon via
// ratio = (1-eps)^2. Rows are computed concurrently.
func (a *SettingA) MaxFlowSweep(ratios []float64, arbitrary bool) ([]FlowRow, []*core.Solution, error) {
	p := a.ProblemIP
	if arbitrary {
		p = a.ProblemArb
	}
	rows := make([]FlowRow, len(ratios))
	sols := make([]*core.Solution, len(ratios))
	errs := make([]error, len(ratios))
	parallelFor(len(ratios), func(i int) {
		sol, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: core.RatioToEpsilon(ratios[i]), SolverOptions: innerSolver(a.SolverOptions)})
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = flowRow(p, sol, ratios[i])
		sols[i] = sol
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, sols, nil
}

func flowRow(p *core.Problem, sol *core.Solution, ratio float64) FlowRow {
	row := FlowRow{Ratio: ratio, MSTOps: sol.MSTOps, Throughput: sol.OverallThroughput()}
	for i := range p.Sessions {
		row.SessionRates = append(row.SessionRates, sol.SessionRate(i))
		row.TreeCounts = append(row.TreeCounts, sol.TreeCount(i))
	}
	return row
}

// MCFRow is one column of Table IV/VIII.
type MCFRow struct {
	FlowRow
	Lambda     float64
	PrestepOps int // second running-time component (beta computation)
}

// MCFSweep runs MaxConcurrentFlow at each ratio (Table IV with IP routing,
// Table VIII with arbitrary routing), with the surplus pass enabled as the
// paper's reported per-session rates imply (they exceed lambda·dem for the
// large session). Ratio maps to epsilon via ratio = (1-eps)^3.
func (a *SettingA) MCFSweep(ratios []float64, arbitrary bool) ([]MCFRow, []*core.Solution, error) {
	p := a.ProblemIP
	if arbitrary {
		p = a.ProblemArb
	}
	rows := make([]MCFRow, len(ratios))
	sols := make([]*core.Solution, len(ratios))
	errs := make([]error, len(ratios))
	parallelFor(len(ratios), func(i int) {
		res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
			Epsilon:       core.MCFRatioToEpsilon(ratios[i]),
			SurplusPass:   true,
			SolverOptions: innerSolver(a.SolverOptions),
		})
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = MCFRow{FlowRow: flowRow(p, res.Solution, ratios[i]), Lambda: res.Lambda, PrestepOps: res.PrestepMSTOps}
		rows[i].MSTOps = res.MSTOps - res.PrestepMSTOps
		sols[i] = res.Solution
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, sols, nil
}

// RateCDFs extracts the per-session accumulative tree-rate distributions of
// a solution (Figs. 2, 3, 7, 8).
func RateCDFs(sol *core.Solution) [][]stats.Point {
	out := make([][]stats.Point, len(sol.Sessions))
	for i := range sol.Sessions {
		out[i] = stats.AccumulativeRateCDF(sol.RateDistribution(i))
	}
	return out
}

// LinkUtilizationCDF extracts the link-utilization distribution of a
// solution over covered links (Figs. 4, 9, 14).
func LinkUtilizationCDF(sol *core.Solution) []stats.Point {
	return stats.UtilizationCDF(sol.Utilizations())
}

// TreeLimitPoint is one averaged measurement of the Fig. 5/6 sweeps.
type TreeLimitPoint struct {
	Throughput float64
	// SessionRates[i] is the average aggregate rate of base session i.
	SessionRates []float64
	// TreesUsed[i] is the average number of distinct trees of base session i.
	TreesUsed []float64
}

// TreeLimitResult bundles the Fig. 5/6 (or 10/11) sweeps.
type TreeLimitResult struct {
	MaxTrees []int
	// Random[j] is the random-selection algorithm at limit MaxTrees[j].
	Random []TreeLimitPoint
	// Online[mu][j] is the online algorithm with step size mu.
	Online map[float64][]TreeLimitPoint
}

// TreeLimitConfig configures the Fig. 5/6 protocol.
type TreeLimitConfig struct {
	MaxTrees  []int     // paper: 1..20
	Mus       []float64 // paper: 10,20,30,40,100,200
	Trials    int       // paper: 100
	BaseRatio float64   // fractional base for the random algorithm (paper: 0.95)
	Arbitrary bool      // Figs. 10/11 variant
}

// DefaultTreeLimit returns the paper's Fig. 5/6 protocol parameters.
func DefaultTreeLimit() TreeLimitConfig {
	return TreeLimitConfig{
		MaxTrees:  []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		Mus:       []float64{10, 20, 30, 40, 100, 200},
		Trials:    100,
		BaseRatio: 0.95,
	}
}

// TreeLimitSweep implements the Sec. IV-D protocol. Random algorithm: run
// MaxConcurrentFlow once at BaseRatio, then per trial draw n trees per
// session proportional to rate and keep their fractional rates. Online
// algorithm: replicate each base session n times with demand 1, admit them
// in a random order, and finalize; a base session's rate is the sum over its
// replicas. Results are averaged over Trials random draws/orders; trials run
// concurrently with per-trial split RNGs, so results are independent of
// scheduling.
func (a *SettingA) TreeLimitSweep(cfg TreeLimitConfig) (*TreeLimitResult, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiments: Trials must be >=1")
	}
	p := a.ProblemIP
	if cfg.Arbitrary {
		p = a.ProblemArb
	}
	base, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
		Epsilon: core.MCFRatioToEpsilon(cfg.BaseRatio), SurplusPass: true,
		SolverOptions: innerSolver(a.SolverOptions),
	})
	if err != nil {
		return nil, err
	}
	res := &TreeLimitResult{
		MaxTrees: cfg.MaxTrees,
		Random:   make([]TreeLimitPoint, len(cfg.MaxTrees)),
		Online:   make(map[float64][]TreeLimitPoint, len(cfg.Mus)),
	}
	root := rng.New(a.Seed ^ 0x5eed)

	// Random-selection sweep.
	for j, n := range cfg.MaxTrees {
		pt, err := a.randomPoint(p, base.Solution, n, cfg.Trials, root.Split(uint64(j)))
		if err != nil {
			return nil, err
		}
		res.Random[j] = pt
	}
	// Online sweep per mu.
	for mi, mu := range cfg.Mus {
		pts := make([]TreeLimitPoint, len(cfg.MaxTrees))
		for j, n := range cfg.MaxTrees {
			pt, err := a.onlinePoint(p, mu, n, cfg.Trials, root.Split(uint64(1000+mi*100+j)))
			if err != nil {
				return nil, err
			}
			pts[j] = pt
		}
		res.Online[mu] = pts
	}
	return res, nil
}

// randomPoint averages the random-selection algorithm at tree limit n.
func (a *SettingA) randomPoint(p *core.Problem, base *core.Solution, n, trials int, r *rng.RNG) (TreeLimitPoint, error) {
	k := p.K()
	sums := make([]TreeLimitPoint, trials)
	errs := make([]error, trials)
	parallelFor(trials, func(t int) {
		sol, err := core.SelectTrees(p, base, n, r.Split(uint64(t)))
		if err != nil {
			errs[t] = err
			return
		}
		pt := TreeLimitPoint{Throughput: sol.OverallThroughput(), SessionRates: make([]float64, k), TreesUsed: make([]float64, k)}
		for i := 0; i < k; i++ {
			pt.SessionRates[i] = sol.SessionRate(i)
			pt.TreesUsed[i] = float64(sol.TreeCount(i))
		}
		sums[t] = pt
	})
	for _, err := range errs {
		if err != nil {
			return TreeLimitPoint{}, err
		}
	}
	return averagePoints(sums, k), nil
}

// onlinePoint averages the online algorithm with n replicas of each base
// session over random arrival orders.
func (a *SettingA) onlinePoint(p *core.Problem, mu float64, n, trials int, r *rng.RNG) (TreeLimitPoint, error) {
	k := p.K()
	var rt *routing.IPRoutes
	if p.Mode != core.RoutingArbitrary {
		var members []graph.NodeID
		for _, s := range p.Sessions {
			members = append(members, s.Members...)
		}
		rt = ipRoutesFor(p, members)
	}
	sums := make([]TreeLimitPoint, trials)
	errs := make([]error, trials)
	parallelFor(trials, func(t int) {
		tr := r.Split(uint64(t))
		// Arrival sequence: n replicas of each base session, shuffled.
		arrivals := make([]int, 0, n*k)
		for rep := 0; rep < n; rep++ {
			for i := 0; i < k; i++ {
				arrivals = append(arrivals, i)
			}
		}
		tr.Shuffle(arrivals)
		on, err := core.NewOnline(p.G, mu)
		if err != nil {
			errs[t] = err
			return
		}
		owners := make([]int, 0, len(arrivals))
		for idx, baseIdx := range arrivals {
			s, err := overlay.NewSession(idx, p.Sessions[baseIdx].Members, 1)
			if err != nil {
				errs[t] = err
				return
			}
			oracle, err := makeOracle(p, rt, s)
			if err != nil {
				errs[t] = err
				return
			}
			if _, err := on.Join(oracle); err != nil {
				errs[t] = err
				return
			}
			owners = append(owners, baseIdx)
		}
		sol, err := on.Finalize()
		if err != nil {
			errs[t] = err
			return
		}
		pt := TreeLimitPoint{SessionRates: make([]float64, k), TreesUsed: make([]float64, k)}
		distinct := make([]map[string]bool, k)
		for i := range distinct {
			distinct[i] = make(map[string]bool)
		}
		for idx, baseIdx := range owners {
			rate := sol.SessionRate(idx)
			pt.SessionRates[baseIdx] += rate
			pt.Throughput += float64(p.Sessions[baseIdx].Receivers()) * rate
			// Distinct physical trees: strip the session id from the key by
			// reusing pair/route identity via a re-stamped tree.
			tcopy := overlay.NewTree(baseIdx, sol.Flows[idx][0].Tree.Pairs, sol.Flows[idx][0].Tree.Routes)
			distinct[baseIdx][tcopy.Key()] = true
		}
		for i := 0; i < k; i++ {
			pt.TreesUsed[i] = float64(len(distinct[i]))
		}
		sums[t] = pt
	})
	for _, err := range errs {
		if err != nil {
			return TreeLimitPoint{}, err
		}
	}
	return averagePoints(sums, k), nil
}

// makeOracle instantiates the oracle matching p's routing mode for a
// (possibly re-indexed) session. rt may be nil in arbitrary mode, which
// needs no fixed route table.
func makeOracle(p *core.Problem, rt *routing.IPRoutes, s *overlay.Session) (overlay.TreeOracle, error) {
	if p.Mode == core.RoutingArbitrary {
		return overlay.NewArbitraryOracle(p.G, s)
	}
	return overlay.NewFixedOracle(p.G, rt, s)
}

// ipRoutesFor builds fixed route tables consistent with p's routing weights.
func ipRoutesFor(p *core.Problem, members []graph.NodeID) *routing.IPRoutes {
	if p.RouteWeights != nil {
		return routing.NewWeightedIPRoutes(p.G, members, p.RouteWeights)
	}
	return routing.NewIPRoutes(p.G, members)
}

func averagePoints(pts []TreeLimitPoint, k int) TreeLimitPoint {
	avg := TreeLimitPoint{SessionRates: make([]float64, k), TreesUsed: make([]float64, k)}
	n := float64(len(pts))
	for _, pt := range pts {
		avg.Throughput += pt.Throughput / n
		for i := 0; i < k; i++ {
			avg.SessionRates[i] += pt.SessionRates[i] / n
			avg.TreesUsed[i] += pt.TreesUsed[i] / n
		}
	}
	return avg
}
