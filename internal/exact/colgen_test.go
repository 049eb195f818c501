package exact

import (
	"math"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

func treeOracles(t testing.TB, g *graph.Graph, sessions []*overlay.Session) []overlay.TreeOracle {
	t.Helper()
	var members []graph.NodeID
	for _, s := range sessions {
		members = append(members, s.Members...)
	}
	rt := routing.NewIPRoutes(g, members)
	var oracles []overlay.TreeOracle
	for _, s := range sessions {
		o, err := overlay.NewFixedOracle(g, rt, s)
		if err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, o)
	}
	return oracles
}

func TestCGMatchesEnumerationM1(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		r := rng.New(uint64(500 + trial))
		net, err := topology.Waxman(topology.DefaultWaxman(25), r)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		perm := r.Perm(25)
		s1, _ := overlay.NewSession(0, perm[0:4], 1)
		s2, _ := overlay.NewSession(1, perm[4:7], 1)
		sessions := []*overlay.Session{s1, s2}
		enum, err := MaxMulticommodityFlow(g, fixedOracles(t, g, sessions), 6)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := MaxMulticommodityFlowCG(g, treeOracles(t, g, sessions), CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cg.Optimal {
			t.Fatalf("trial %d: CG did not converge", trial)
		}
		if math.Abs(cg.Value-enum.Value) > 1e-6 {
			t.Fatalf("trial %d: CG %v != enumeration %v", trial, cg.Value, enum.Value)
		}
		if cg.Columns >= 16+3 {
			// Column generation must beat full enumeration (16+3 trees).
			t.Logf("trial %d: CG used %d columns (enumeration: 19)", trial, cg.Columns)
		}
	}
}

func TestCGMatchesEnumerationM2(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		r := rng.New(uint64(600 + trial))
		net, err := topology.Waxman(topology.DefaultWaxman(25), r)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		perm := r.Perm(25)
		s1, _ := overlay.NewSession(0, perm[0:4], 1+float64(r.Intn(3)))
		s2, _ := overlay.NewSession(1, perm[4:7], 1+float64(r.Intn(3)))
		sessions := []*overlay.Session{s1, s2}
		enum, err := MaxConcurrentFlow(g, fixedOracles(t, g, sessions), 6)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := MaxConcurrentFlowCG(g, treeOracles(t, g, sessions), CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cg.Optimal {
			t.Fatalf("trial %d: CG did not converge", trial)
		}
		if math.Abs(cg.Value-enum.Value) > 1e-6 {
			t.Fatalf("trial %d: CG lambda %v != enumeration %v", trial, cg.Value, enum.Value)
		}
	}
}

func TestCGSolutionIsFeasible(t *testing.T) {
	r := rng.New(77)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(30)
	s1, _ := overlay.NewSession(0, perm[0:8], 1) // size 8: enumeration infeasible
	s2, _ := overlay.NewSession(1, perm[8:13], 1)
	sessions := []*overlay.Session{s1, s2}
	cg, err := MaxMulticommodityFlowCG(g, treeOracles(t, g, sessions), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cg.Optimal {
		t.Fatal("CG did not converge on size-8 session")
	}
	load := make([]float64, g.NumEdges())
	for i, trees := range cg.Trees {
		for j, tree := range trees {
			if err := tree.Validate(g, sessions[i]); err != nil {
				t.Fatal(err)
			}
			for _, u := range tree.Use() {
				load[u.Edge] += float64(u.Count) * cg.Rates[i][j]
			}
		}
	}
	for e, l := range load {
		if l > g.Edges[e].Capacity+1e-6 {
			t.Fatalf("edge %d overloaded: %v", e, l)
		}
	}
	if cg.Value <= 0 || cg.SessionRates[0] <= 0 {
		t.Fatal("CG produced empty solution")
	}
}

func TestCGUpperBoundsFPTAS(t *testing.T) {
	// The CG optimum must dominate any feasible solution; in particular it
	// bounds the greedy tree-packing seed and the per-session rates must
	// sum consistently.
	r := rng.New(88)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(30)
	s1, _ := overlay.NewSession(0, perm[0:5], 1)
	sessions := []*overlay.Session{s1}
	cg, err := MaxMulticommodityFlowCG(g, treeOracles(t, g, sessions), CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	enum, err := MaxMulticommodityFlow(g, fixedOracles(t, g, sessions), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg.Value-enum.Value) > 1e-6 {
		t.Fatalf("CG %v vs enum %v", cg.Value, enum.Value)
	}
	sum := 0.0
	for _, rt := range cg.Rates[0] {
		sum += rt
	}
	if math.Abs(sum-cg.SessionRates[0]) > 1e-9 {
		t.Fatal("rates inconsistent")
	}
}

func TestCGEmptyOracles(t *testing.T) {
	if _, err := MaxMulticommodityFlowCG(nil, nil, CGOptions{}); err == nil {
		t.Fatal("empty oracle set accepted")
	}
	if _, err := MaxConcurrentFlowCG(nil, nil, CGOptions{}); err == nil {
		t.Fatal("empty oracle set accepted")
	}
}

func BenchmarkCGM1Size8(b *testing.B) {
	r := rng.New(3)
	net, err := topology.Waxman(topology.DefaultWaxman(40), r)
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(40)
	s1, _ := overlay.NewSession(0, perm[0:8], 1)
	s2, _ := overlay.NewSession(1, perm[8:12], 1)
	sessions := []*overlay.Session{s1, s2}
	var members []graph.NodeID
	for _, s := range sessions {
		members = append(members, s.Members...)
	}
	rt := routing.NewIPRoutes(g, members)
	var oracles []overlay.TreeOracle
	for _, s := range sessions {
		o, err := overlay.NewFixedOracle(g, rt, s)
		if err != nil {
			b.Fatal(err)
		}
		oracles = append(oracles, o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMulticommodityFlowCG(g, oracles, CGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
