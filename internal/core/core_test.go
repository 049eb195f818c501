package core_test

import (
	"math"
	"testing"

	"overcast/internal/core"
	"overcast/internal/exact"
	"overcast/internal/graph"
	"overcast/internal/maxflow"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// buildProblem is a test helper assembling a Problem from member lists.
func buildProblem(t testing.TB, g *graph.Graph, memberSets [][]graph.NodeID, demands []float64, mode core.RoutingMode) *core.Problem {
	t.Helper()
	var sessions []*overlay.Session
	for i, members := range memberSets {
		d := 1.0
		if demands != nil {
			d = demands[i]
		}
		s, err := overlay.NewSession(i, members, d)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	p, err := core.NewProblem(g, sessions, mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func exactOracles(t testing.TB, p *core.Problem) []*overlay.FixedOracle {
	t.Helper()
	var members []graph.NodeID
	for _, s := range p.Sessions {
		members = append(members, s.Members...)
	}
	rt := routing.NewIPRoutes(p.G, members)
	var oracles []*overlay.FixedOracle
	for _, s := range p.Sessions {
		o, err := overlay.NewFixedOracle(p.G, rt, s)
		if err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, o)
	}
	return oracles
}

func TestNewProblemValidation(t *testing.T) {
	net, _ := topology.Ring(5, 10)
	g := net.Graph
	s0, _ := overlay.NewSession(0, []graph.NodeID{0, 2}, 1)
	if _, err := core.NewProblem(nil, []*overlay.Session{s0}, core.RoutingIP); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := core.NewProblem(g, nil, core.RoutingIP); err == nil {
		t.Error("no sessions accepted")
	}
	sBad, _ := overlay.NewSession(5, []graph.NodeID{0, 2}, 1)
	if _, err := core.NewProblem(g, []*overlay.Session{sBad}, core.RoutingIP); err == nil {
		t.Error("non-dense session ID accepted")
	}
	sOut, _ := overlay.NewSession(0, []graph.NodeID{0, 99}, 1)
	if _, err := core.NewProblem(g, []*overlay.Session{sOut}, core.RoutingIP); err == nil {
		t.Error("out-of-graph member accepted")
	}
	p, err := core.NewProblem(g, []*overlay.Session{s0}, core.RoutingIP)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || p.MaxReceivers != 1 || p.U < 1 {
		t.Fatalf("problem fields wrong: %+v", p)
	}
	if p.Weight(0) != 1 {
		t.Fatalf("weight %v", p.Weight(0))
	}
}

func TestRoutingModeString(t *testing.T) {
	if core.RoutingIP.String() != "ip" || core.RoutingArbitrary.String() != "arbitrary" {
		t.Fatal("mode strings wrong")
	}
	if core.RoutingMode(9).String() == "" {
		t.Fatal("unknown mode should still print")
	}
}

func TestMaxFlowOptionsValidation(t *testing.T) {
	net, _ := topology.Ring(5, 10)
	p := buildProblem(t, net.Graph, [][]graph.NodeID{{0, 2}}, nil, core.RoutingIP)
	if _, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.9}); err == nil {
		t.Error("eps=0.9 accepted")
	}
}

func TestMaxFlowTwoMemberEqualsSTMaxFlowArbitraryRouting(t *testing.T) {
	// With a single 2-member session and arbitrary routing, M1 *is* the
	// undirected s-t maximum flow; Dinic provides the exact value.
	net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	src, dst := 0, 29
	p := buildProblem(t, g, [][]graph.NodeID{{src, dst}}, nil, core.RoutingArbitrary)
	const eps = 0.05
	sol, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
	din := maxflow.NewNetwork(g.NumNodes())
	for _, e := range g.Edges {
		din.AddEdge(e.U, e.V, e.Capacity)
	}
	opt := din.MaxFlow(src, dst)
	got := sol.SessionRate(0)
	if got > opt+1e-6 {
		t.Fatalf("FPTAS %v exceeds max flow %v", got, opt)
	}
	if got < (1-eps)*(1-eps)*opt-1e-9 {
		t.Fatalf("FPTAS %v below (1-eps)^2 * %v", got, opt)
	}
}

func TestMaxFlowMatchesExactM1SmallInstances(t *testing.T) {
	const eps = 0.05
	for trial := 0; trial < 6; trial++ {
		r := rng.New(uint64(100 + trial))
		net, err := topology.Waxman(topology.DefaultWaxman(25), r)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		perm := r.Perm(25)
		memberSets := [][]graph.NodeID{
			{perm[0], perm[1], perm[2], perm[3]},
			{perm[4], perm[5], perm[6]},
		}
		p := buildProblem(t, g, memberSets, nil, core.RoutingIP)
		sol, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.CheckFeasible(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex, err := exact.MaxMulticommodityFlow(g, exactOracles(t, p), 6)
		if err != nil {
			t.Fatal(err)
		}
		got := core.WeightedObjective(p, sol)
		if got > ex.Value+1e-6 {
			t.Fatalf("trial %d: FPTAS objective %v exceeds optimum %v", trial, got, ex.Value)
		}
		if got < (1-2*eps)*ex.Value-1e-9 {
			t.Fatalf("trial %d: FPTAS objective %v below (1-2eps)*%v", trial, got, ex.Value)
		}
	}
}

func TestMaxFlowImprovesWithTighterEpsilon(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(40), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, net.Graph, [][]graph.NodeID{
		{1, 8, 15, 22, 29}, {3, 12, 21},
	}, nil, core.RoutingIP)
	loose, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	lo := core.WeightedObjective(p, loose)
	hi := core.WeightedObjective(p, tight)
	// The guarantee only promises hi >= (1-2*0.03)OPT >= (1-0.06)/(1)*lo...
	// empirically the tight run must not be significantly worse.
	if hi < lo*0.97 {
		t.Fatalf("tighter epsilon got worse: %v -> %v", lo, hi)
	}
	if tight.MSTOps <= loose.MSTOps {
		t.Fatalf("tighter epsilon should cost more MST ops: %d vs %d", tight.MSTOps, loose.MSTOps)
	}
}

func TestMaxFlowParallelMatchesSerial(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(40), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, net.Graph, [][]graph.NodeID{
		{0, 10, 20, 30}, {5, 15, 25, 35}, {2, 22},
	}, nil, core.RoutingIP)
	serial, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1, SolverOptions: core.SolverOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1, SolverOptions: core.SolverOptions{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Sessions {
		if math.Abs(serial.SessionRate(i)-parallel.SessionRate(i)) > 1e-9 {
			t.Fatalf("session %d: serial %v != parallel %v", i, serial.SessionRate(i), parallel.SessionRate(i))
		}
	}
	if serial.MSTOps != parallel.MSTOps {
		t.Fatalf("MST op counts differ: %d vs %d", serial.MSTOps, parallel.MSTOps)
	}
}

func TestMaxFlowArbitraryAtLeastIP(t *testing.T) {
	// Dynamic routing can only widen the feasible set; values must satisfy
	// arbitrary >= ip - small tolerance.
	net, err := topology.Waxman(topology.DefaultWaxman(35), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]graph.NodeID{{0, 9, 18, 27}, {4, 14, 24}}
	pIP := buildProblem(t, net.Graph, sets, nil, core.RoutingIP)
	pArb := buildProblem(t, net.Graph, sets, nil, core.RoutingArbitrary)
	const eps = 0.08
	ip, err := core.MaxFlow(pIP, core.MaxFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	arb, err := core.MaxFlow(pArb, core.MaxFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	vIP := core.WeightedObjective(pIP, ip)
	vArb := core.WeightedObjective(pArb, arb)
	// Both are (1-2eps)-approximations of their optima with OPT_arb >=
	// OPT_ip; allow the approximation slack.
	if vArb < (1-2*eps)*vIP-1e-9 {
		t.Fatalf("arbitrary routing value %v too far below IP value %v", vArb, vIP)
	}
	if err := arb.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionAccessors(t *testing.T) {
	net, _ := topology.Dumbbell(3, 100, 10)
	p := buildProblem(t, net.Graph, [][]graph.NodeID{{0, 3}, {1, 4}}, []float64{1, 2}, core.RoutingIP)
	sol, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i, s := range p.Sessions {
		total += float64(s.Receivers()) * sol.SessionRate(i)
	}
	if math.Abs(total-sol.OverallThroughput()) > 1e-9 {
		t.Fatal("OverallThroughput mismatch")
	}
	if sol.MinSessionRate() > sol.SessionRate(0)+1e-12 || sol.MinSessionRate() > sol.SessionRate(1)+1e-12 {
		t.Fatal("MinSessionRate not minimal")
	}
	if sol.MaxCongestion() > 1+1e-9 {
		t.Fatal("solution overloaded")
	}
	utils := sol.Utilizations()
	for i := 1; i < len(utils); i++ {
		if utils[i] > utils[i-1] {
			t.Fatal("Utilizations not sorted descending")
		}
	}
	for i := range p.Sessions {
		rd := sol.RateDistribution(i)
		if len(rd) != sol.TreeCount(i) {
			t.Fatal("RateDistribution length mismatch")
		}
		sum := 0.0
		for _, v := range rd {
			sum += v
		}
		if math.Abs(sum-sol.SessionRate(i)) > 1e-9 {
			t.Fatal("RateDistribution does not sum to session rate")
		}
	}
}
