package exact

import (
	"fmt"

	"overcast/internal/graph"
	"overcast/internal/lp"
	"overcast/internal/overlay"
)

// This file implements column generation for the paper's reformulated
// programs M1'/M2' (Sec. II-D): instead of enumerating the exponential tree
// sets, a restricted master LP is solved over a small working set of trees,
// and the minimum-overlay-spanning-tree oracle — priced with the master's
// dual values — either proves optimality or supplies an improving column.
// This is exactly the separation-oracle argument the paper uses to show
// M1/M2 are polynomially solvable, realized with the simplex instead of the
// ellipsoid method. Unlike the enumeration solver it scales to sessions far
// beyond |S| = 6 and works with both routing oracles.

// CGOptions configures the column-generation solvers.
type CGOptions struct {
	// MaxRounds bounds pricing rounds (0 = 200 + 50·k).
	MaxRounds int
	// Tol is the pricing tolerance: a column must improve the reduced cost
	// by more than Tol to be added (default 1e-9).
	Tol float64
}

func (o *CGOptions) normalize(k int) {
	if o.MaxRounds == 0 {
		o.MaxRounds = 200 + 50*k
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
}

// CGResult is the outcome of a column-generation solve.
type CGResult struct {
	// Value is the optimal objective (weighted flow for M1, lambda for M2).
	Value float64
	// SessionRates[i] is the total optimal rate of session i.
	SessionRates []float64
	// Trees[i] and Rates[i] describe the supporting trees (only those in
	// the final working set; zero-rate columns may appear).
	Trees [][]*overlay.Tree
	Rates [][]float64
	// Rounds is the number of pricing rounds performed; Columns the final
	// working-set size.
	Rounds, Columns int
	// Optimal reports whether pricing proved optimality (false if MaxRounds
	// was exhausted first).
	Optimal bool
}

// master carries the growing restricted LP.
type master struct {
	g       *graph.Graph
	oracles []overlay.TreeOracle
	weights []float64 // objective weight per session (M1) — nil for M2

	// columns
	trees   [][]*overlay.Tree
	keys    []map[string]bool
	session []int // owning session per column, in insertion order
	flat    []*overlay.Tree
}

func newMaster(g *graph.Graph, oracles []overlay.TreeOracle, weights []float64) *master {
	m := &master{g: g, oracles: oracles, weights: weights}
	m.trees = make([][]*overlay.Tree, len(oracles))
	m.keys = make([]map[string]bool, len(oracles))
	for i := range m.keys {
		m.keys[i] = make(map[string]bool)
	}
	return m
}

// add inserts a column if new; reports whether it was added.
func (m *master) add(i int, t *overlay.Tree) bool {
	key := t.Key()
	if m.keys[i][key] {
		return false
	}
	m.keys[i][key] = true
	m.trees[i] = append(m.trees[i], t)
	m.session = append(m.session, i)
	m.flat = append(m.flat, t)
	return true
}

// solveM1 solves the restricted M1 master and returns the LP result.
func (m *master) solveM1() (*lp.Result, error) {
	n := len(m.flat)
	p := lp.Problem{C: make([]float64, n), A: make([][]float64, m.g.NumEdges()), B: make([]float64, m.g.NumEdges())}
	for j, t := range m.flat {
		p.C[j] = m.weights[m.session[j]]
		_ = t
	}
	for e := 0; e < m.g.NumEdges(); e++ {
		p.A[e] = make([]float64, n)
		p.B[e] = m.g.Edges[e].Capacity
	}
	for j, t := range m.flat {
		for _, u := range t.Use() {
			p.A[u.Edge][j] = float64(u.Count)
		}
	}
	return lp.Solve(p)
}

// MaxMulticommodityFlowCG solves M1 exactly (over the oracle's route model)
// by column generation.
func MaxMulticommodityFlowCG(g *graph.Graph, oracles []overlay.TreeOracle, opts CGOptions) (*CGResult, error) {
	k := len(oracles)
	if k == 0 {
		return nil, fmt.Errorf("exact: no oracles")
	}
	opts.normalize(k)
	smax := 0
	for _, o := range oracles {
		if r := o.Session().Receivers(); r > smax {
			smax = r
		}
	}
	weights := make([]float64, k)
	for i, o := range oracles {
		weights[i] = float64(o.Session().Receivers()) / float64(smax)
	}
	m := newMaster(g, oracles, weights)
	// Seed: one MOST per session under uniform lengths.
	unit := graph.NewLengths(g, 1)
	for i, o := range oracles {
		t, err := o.MinTree(unit)
		if err != nil {
			return nil, fmt.Errorf("exact: CG seed session %d: %w", i, err)
		}
		m.add(i, t)
	}

	var res *lp.Result
	rounds := 0
	optimal := false
	for ; rounds < opts.MaxRounds; rounds++ {
		var err error
		res, err = m.solveM1()
		if err != nil {
			return nil, fmt.Errorf("exact: CG master round %d: %w", rounds, err)
		}
		// Pricing: session i improves iff min_t sum_e n_e(t)·y_e < w_i.
		y := graph.Lengths(res.Duals)
		improved := false
		for i, o := range oracles {
			t, err := o.MinTree(y)
			if err != nil {
				return nil, fmt.Errorf("exact: CG pricing session %d: %w", i, err)
			}
			if t.LengthUnder(y) < weights[i]-opts.Tol {
				if m.add(i, t) {
					improved = true
				}
			}
		}
		if !improved {
			optimal = true
			break
		}
	}
	return m.finish(res, rounds, optimal, res.Value), nil
}

// MaxConcurrentFlowCG solves M2 exactly (over the oracle's route model) by
// column generation. The master has one extra lambda variable and one
// demand-coverage row per session; the dual of session i's row prices its
// trees.
func MaxConcurrentFlowCG(g *graph.Graph, oracles []overlay.TreeOracle, opts CGOptions) (*CGResult, error) {
	k := len(oracles)
	if k == 0 {
		return nil, fmt.Errorf("exact: no oracles")
	}
	opts.normalize(k)
	m := newMaster(g, oracles, nil)
	unit := graph.NewLengths(g, 1)
	for i, o := range oracles {
		t, err := o.MinTree(unit)
		if err != nil {
			return nil, fmt.Errorf("exact: CG seed session %d: %w", i, err)
		}
		m.add(i, t)
	}

	numEdges := g.NumEdges()
	solve := func() (*lp.Result, error) {
		n := len(m.flat) + 1
		lambdaVar := len(m.flat)
		p := lp.Problem{C: make([]float64, n)}
		p.C[lambdaVar] = 1
		p.A = make([][]float64, numEdges+k)
		p.B = make([]float64, numEdges+k)
		for e := 0; e < numEdges; e++ {
			p.A[e] = make([]float64, n)
			p.B[e] = g.Edges[e].Capacity
		}
		for j, t := range m.flat {
			for _, u := range t.Use() {
				p.A[u.Edge][j] = float64(u.Count)
			}
		}
		for i, o := range oracles {
			row := make([]float64, n)
			row[lambdaVar] = o.Session().Demand
			for j, t := range m.flat {
				if m.session[j] == i {
					_ = t
					row[j] = -1
				}
			}
			p.A[numEdges+i] = row
			p.B[numEdges+i] = 0
		}
		return lp.Solve(p)
	}

	var res *lp.Result
	rounds := 0
	optimal := false
	for ; rounds < opts.MaxRounds; rounds++ {
		var err error
		res, err = solve()
		if err != nil {
			return nil, fmt.Errorf("exact: CG master round %d: %w", rounds, err)
		}
		y := graph.Lengths(res.Duals[:numEdges])
		improved := false
		for i, o := range oracles {
			li := res.Duals[numEdges+i]
			t, err := o.MinTree(y)
			if err != nil {
				return nil, fmt.Errorf("exact: CG pricing session %d: %w", i, err)
			}
			// Column reduced cost: 0 - (sum n_e y_e - l_i); improving iff
			// tree length < l_i.
			if t.LengthUnder(y) < li-opts.Tol {
				if m.add(i, t) {
					improved = true
				}
			}
		}
		if !improved {
			optimal = true
			break
		}
	}
	lambda := res.X[len(res.X)-1]
	return m.finish(res, rounds, optimal, lambda), nil
}

// finish packages the master state into a CGResult. For M2 the lambda
// column (last) is excluded from per-session rates automatically because it
// belongs to no session.
func (m *master) finish(res *lp.Result, rounds int, optimal bool, value float64) *CGResult {
	out := &CGResult{
		Value:   value,
		Rounds:  rounds,
		Columns: len(m.flat),
		Optimal: optimal,
	}
	out.SessionRates = make([]float64, len(m.oracles))
	out.Trees = m.trees
	out.Rates = make([][]float64, len(m.oracles))
	idx := make([]int, len(m.oracles))
	for i := range m.oracles {
		out.Rates[i] = make([]float64, len(m.trees[i]))
	}
	for j := range m.flat {
		i := m.session[j]
		rate := res.X[j]
		out.Rates[i][idx[i]] = rate
		idx[i]++
		out.SessionRates[i] += rate
	}
	return out
}
