package core

import (
	"fmt"
	"sort"

	"overcast/internal/graph"
	"overcast/internal/overlay"
)

// TreeFlow is one overlay tree carrying a nonnegative rate.
type TreeFlow struct {
	Tree *overlay.Tree
	Rate float64
}

// Solution is a (fractional) multicommodity tree flow: per session, a set of
// distinct trees with rates.
type Solution struct {
	G        *graph.Graph
	Sessions []*overlay.Session
	// Flows[i] lists the trees of session i with positive rate, in the
	// order they were first used.
	Flows [][]TreeFlow

	// MSTOps counts minimum-overlay-spanning-tree computations performed to
	// produce the solution — the running-time unit the paper reports.
	MSTOps int
	// Phases counts outer phases for phase-structured algorithms.
	Phases int
	// Plane aggregates the shared-SSSP-plane counters of the multi-session
	// batch runners that contributed to the solution (the phase/iteration
	// loop and, for MCF, the surplus pass — NOT the beta prestep, whose
	// single-session planes dedup 1.0 by construction and are reported on
	// MCFResult.PrestepPlane instead). Zero when the plane was disabled or
	// the oracles are fixed-routing; diagnostic only — never affects rates.
	Plane overlay.PlaneStats
}

// newSolution allocates an empty solution shell for p.
func newSolution(p *Problem) *Solution {
	return &Solution{G: p.G, Sessions: p.Sessions, Flows: make([][]TreeFlow, len(p.Sessions))}
}

// SessionRate returns the total rate of session i (Σ_j f^i_j).
func (s *Solution) SessionRate(i int) float64 {
	total := 0.0
	for _, tf := range s.Flows[i] {
		total += tf.Rate
	}
	return total
}

// OverallThroughput returns Σ_i (|S_i|-1)·rate_i, the aggregate receiving
// rate over all session members — the quantity the paper's tables report.
func (s *Solution) OverallThroughput() float64 {
	total := 0.0
	for i, sess := range s.Sessions {
		total += float64(sess.Receivers()) * s.SessionRate(i)
	}
	return total
}

// MinSessionRate returns the smallest session rate (the max-min objective
// when demands are uniform).
func (s *Solution) MinSessionRate() float64 {
	min := -1.0
	for i := range s.Sessions {
		if r := s.SessionRate(i); min < 0 || r < min {
			min = r
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// ConcurrentRatio returns min_i rate_i/dem(i), the M2 objective value
// lambda of the solution.
func (s *Solution) ConcurrentRatio() float64 {
	min := -1.0
	for i, sess := range s.Sessions {
		if r := s.SessionRate(i) / sess.Demand; min < 0 || r < min {
			min = r
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// TreeCount returns the number of distinct trees with positive rate in
// session i.
func (s *Solution) TreeCount(i int) int {
	count := 0
	for _, tf := range s.Flows[i] {
		if tf.Rate > 0 {
			count++
		}
	}
	return count
}

// LinkFlows returns the per-physical-edge load Σ_{i,j} n_e(t^i_j)·f^i_j.
func (s *Solution) LinkFlows() []float64 {
	load := make([]float64, s.G.NumEdges())
	for _, flows := range s.Flows {
		for _, tf := range flows {
			for _, u := range tf.Tree.Use() {
				load[u.Edge] += float64(u.Count) * tf.Rate
			}
		}
	}
	return load
}

// MaxCongestion returns max_e load_e/c_e.
func (s *Solution) MaxCongestion() float64 {
	max := 0.0
	for e, l := range s.LinkFlows() {
		if c := l / s.G.Edges[e].Capacity; c > max {
			max = c
		}
	}
	return max
}

// Utilizations returns the per-edge utilization ratio load_e/c_e restricted
// to edges actually touched by at least one session route (the paper's
// link-utilization plots count only covered links), sorted descending.
func (s *Solution) Utilizations() []float64 {
	load := s.LinkFlows()
	out := make([]float64, 0, len(load))
	for e, l := range load {
		if l > 0 {
			out = append(out, l/s.G.Edges[e].Capacity)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// CheckFeasible verifies every capacity constraint within tol and validates
// every tree against its session.
func (s *Solution) CheckFeasible(tol float64) error {
	for i, flows := range s.Flows {
		for j, tf := range flows {
			if tf.Rate < -tol {
				return fmt.Errorf("core: negative rate %v on tree %d of session %d", tf.Rate, j, i)
			}
			if err := tf.Tree.Validate(s.G, s.Sessions[i]); err != nil {
				return fmt.Errorf("core: session %d tree %d: %w", i, j, err)
			}
		}
	}
	for e, l := range s.LinkFlows() {
		if cap := s.G.Edges[e].Capacity; l > cap*(1+tol) {
			return fmt.Errorf("core: edge %d overloaded: %v > %v", e, l, cap)
		}
	}
	return nil
}

// Scale multiplies every rate by factor.
func (s *Solution) Scale(factor float64) {
	for i := range s.Flows {
		for j := range s.Flows[i] {
			s.Flows[i][j].Rate *= factor
		}
	}
}

// ScaleToFeasible divides all rates by the maximum congestion (if above 1),
// returning the factor applied. Scaling is uniform across sessions so that
// fairness ratios are preserved.
func (s *Solution) ScaleToFeasible() float64 {
	cong := s.MaxCongestion()
	if cong <= 1 {
		return 1
	}
	factor := 1 / cong
	s.Scale(factor)
	return factor
}

// RateDistribution returns the rates of session i sorted descending — the
// input to the paper's "accumulative rate distribution" plots (Figs. 2/3).
func (s *Solution) RateDistribution(i int) []float64 {
	rates := make([]float64, 0, len(s.Flows[i]))
	for _, tf := range s.Flows[i] {
		if tf.Rate > 0 {
			rates = append(rates, tf.Rate)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	return rates
}
