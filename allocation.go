package overcast

import (
	"fmt"

	"overcast/internal/baseline"
	"overcast/internal/core"
	"overcast/internal/rng"
	"overcast/internal/sim"
)

// Tree summarizes one overlay tree of an allocation.
type Tree struct {
	// Pairs are the overlay edges as member-index pairs (indices into the
	// session's Members slice).
	Pairs [][2]int
	// Rate is the flow carried by this tree.
	Rate float64
	// PhysicalHops is the total number of physical link traversals
	// (Σ_e n_e(t)).
	PhysicalHops int
}

// Allocation is a feasible multi-tree flow for every session of a System.
type Allocation struct {
	sys *System
	sol *core.Solution
}

// SessionRate returns the total rate allocated to session i.
func (a *Allocation) SessionRate(i int) float64 { return a.sol.SessionRate(i) }

// OverallThroughput returns Σ_i (|S_i|-1)·rate_i, the aggregate receiving
// rate over all receivers.
func (a *Allocation) OverallThroughput() float64 { return a.sol.OverallThroughput() }

// MinSessionRate returns the smallest session rate.
func (a *Allocation) MinSessionRate() float64 { return a.sol.MinSessionRate() }

// TreeCount returns the number of distinct trees carrying flow for session i.
func (a *Allocation) TreeCount(i int) int { return a.sol.TreeCount(i) }

// Trees returns session i's trees with their rates, highest rate first not
// guaranteed — use RateDistribution for sorted rates.
func (a *Allocation) Trees(i int) []Tree {
	var out []Tree
	for _, tf := range a.sol.Flows[i] {
		if tf.Rate <= 0 {
			continue
		}
		pairs := make([][2]int, len(tf.Tree.Pairs))
		copy(pairs, tf.Tree.Pairs)
		out = append(out, Tree{Pairs: pairs, Rate: tf.Rate, PhysicalHops: tf.Tree.TotalHops()})
	}
	return out
}

// RateDistribution returns session i's tree rates sorted descending — the
// paper's "asymmetric rate distribution" data.
func (a *Allocation) RateDistribution(i int) []float64 { return a.sol.RateDistribution(i) }

// LinkUtilizations returns the utilization ratio of every physical link
// touched by the allocation, sorted descending.
func (a *Allocation) LinkUtilizations() []float64 { return a.sol.Utilizations() }

// MaxCongestion returns the maximum link load/capacity ratio (<= 1 for all
// allocations this library produces).
func (a *Allocation) MaxCongestion() float64 { return a.sol.MaxCongestion() }

// Verify re-checks every capacity constraint and tree invariant; it returns
// nil for every allocation produced by this library.
func (a *Allocation) Verify() error { return a.sol.CheckFeasible(1e-9) }

// SpanningTreeOps reports how many minimum-overlay-spanning-tree
// computations the producing algorithm performed (the paper's running-time
// unit).
func (a *Allocation) SpanningTreeOps() int { return a.sol.MSTOps }

// SimReport is the outcome of replaying an allocation on the concurrent
// fluid simulator.
type SimReport struct {
	// DeliveredRate[i] is the measured delivery rate of session i.
	DeliveredRate []float64
	// OfferedRate[i] is the configured sending rate of session i.
	OfferedRate []float64
	// OverallDelivered aggregates over receivers, comparable to
	// OverallThroughput.
	OverallDelivered float64
	// PeakLinkUtilization is the highest instantaneous link load observed.
	PeakLinkUtilization float64
}

// Simulate pushes the allocation's traffic through the network for the
// given number of steps of dt seconds each and reports what was actually
// delivered. Feasible allocations deliver their full offered rates.
func (a *Allocation) Simulate(steps int, dt float64) (*SimReport, error) {
	rep, err := sim.Run(a.sol, sim.Config{Steps: steps, DT: dt})
	if err != nil {
		return nil, err
	}
	return &SimReport{
		DeliveredRate:       rep.DeliveredRate,
		OfferedRate:         rep.OfferedRate,
		OverallDelivered:    rep.OverallDelivered,
		PeakLinkUtilization: rep.PeakLinkUtilization,
	}, nil
}

// MaxFlow computes a feasible multi-tree allocation whose weighted
// aggregate throughput is within `ratio` (e.g. 0.95) of the optimum — the
// paper's Table I FPTAS. Larger sessions are favored, as the objective
// weights sessions by receiver count.
func (s *System) MaxFlow(ratio float64) (*Allocation, error) {
	if ratio <= 0 || ratio >= 1 {
		return nil, fmt.Errorf("overcast: ratio must be in (0,1), got %v", ratio)
	}
	sol, err := core.MaxFlow(s.problem, core.MaxFlowOptions{Epsilon: core.RatioToEpsilon(ratio)})
	if err != nil {
		return nil, err
	}
	return &Allocation{sys: s, sol: sol}, nil
}

// FairAllocation is a MaxConcurrentFlow result.
type FairAllocation struct {
	*Allocation
	// Lambda is min_i rate_i/dem(i): every session is guaranteed at least
	// Lambda times its demand.
	Lambda float64
}

// MaxConcurrentFlow computes a weighted max-min fair allocation within
// `ratio` of the optimal concurrent ratio — the paper's Table III FPTAS.
// With surplus set, leftover capacity is back-filled MaxFlow-style after
// every session has secured its fair share (the behaviour behind the
// paper's Table IV rates).
func (s *System) MaxConcurrentFlow(ratio float64, surplus bool) (*FairAllocation, error) {
	if ratio <= 0 || ratio >= 1 {
		return nil, fmt.Errorf("overcast: ratio must be in (0,1), got %v", ratio)
	}
	res, err := core.MaxConcurrentFlow(s.problem, core.MaxConcurrentFlowOptions{
		Epsilon:     core.MCFRatioToEpsilon(ratio),
		SurplusPass: surplus,
	})
	if err != nil {
		return nil, err
	}
	return &FairAllocation{Allocation: &Allocation{sys: s, sol: res.Solution}, Lambda: res.Lambda}, nil
}

// LimitTrees restricts a fractional allocation to at most n trees per
// session by rate-proportional sampling (Sec. IV-D's practical algorithm);
// the result keeps the sampled trees' original rates and stays feasible.
func (s *System) LimitTrees(a *Allocation, n int, seed uint64) (*Allocation, error) {
	sol, err := core.SelectTrees(s.problem, a.sol, n, rngFor(seed))
	if err != nil {
		return nil, err
	}
	return &Allocation{sys: s, sol: sol}, nil
}

// RoundToSingleTrees applies Random-MinCongestion (Table V): every session
// gets exactly one tree drawn with probability proportional to its
// fractional rate, scaled to feasibility. The returned congestion is the
// pre-scaling maximum link congestion at full demands (the quantity
// Theorem 3 bounds).
func (s *System) RoundToSingleTrees(a *Allocation, seed uint64) (*Allocation, float64, error) {
	res, err := core.RandomMinCongestion(s.problem, a.sol, rngFor(seed))
	if err != nil {
		return nil, 0, err
	}
	return &Allocation{sys: s, sol: res.Feasible}, res.MaxCongestion, nil
}

// SingleTreeBaseline allocates one minimum-hop tree per session (the
// single-tree overlay multicast the paper's multi-tree approach improves
// on).
func (s *System) SingleTreeBaseline() (*Allocation, error) {
	sol, err := baseline.SingleTree(s.problem)
	if err != nil {
		return nil, err
	}
	return &Allocation{sys: s, sol: sol}, nil
}

// SplitStreamBaseline allocates an interior-node-disjoint forest per
// session (SplitStream-style stripes).
func (s *System) SplitStreamBaseline() (*Allocation, error) {
	sol, err := baseline.SplitStream(s.problem)
	if err != nil {
		return nil, err
	}
	return &Allocation{sys: s, sol: sol}, nil
}

// RandomForestBaseline allocates m uniformly random trees per session.
func (s *System) RandomForestBaseline(m int, seed uint64) (*Allocation, error) {
	sol, err := baseline.RandomForest(s.problem, m, rngFor(seed))
	if err != nil {
		return nil, err
	}
	return &Allocation{sys: s, sol: sol}, nil
}

// rngFor derives a deterministic generator from a seed.
func rngFor(seed uint64) *rng.RNG { return rng.New(seed) }
