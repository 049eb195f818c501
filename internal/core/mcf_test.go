package core_test

import (
	"math"
	"testing"

	"overcast/internal/core"
	"overcast/internal/exact"
	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

func TestMCFOptionsValidation(t *testing.T) {
	net, _ := topology.Ring(5, 10)
	p := buildProblem(t, net.Graph, [][]graph.NodeID{{0, 2}}, nil, core.RoutingIP)
	if _, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: 0.7}); err == nil {
		t.Error("eps=0.7 accepted")
	}
}

func TestMCFMatchesExactM2SmallInstances(t *testing.T) {
	const eps = 0.05
	for trial := 0; trial < 5; trial++ {
		r := rng.New(uint64(300 + trial))
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
		demands := []float64{1 + float64(r.Intn(3)), 1 + float64(r.Intn(3))}
		p := buildProblem(t, g, memberSets, demands, core.RoutingIP)
		res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckFeasible(1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex, err := exact.MaxConcurrentFlow(g, exactOracles(t, p), 6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lambda > ex.Value+1e-6 {
			t.Fatalf("trial %d: lambda %v exceeds optimum %v", trial, res.Lambda, ex.Value)
		}
		if res.Lambda < (1-3*eps)*ex.Value-1e-9 {
			t.Fatalf("trial %d: lambda %v below (1-3eps)*%v", trial, res.Lambda, ex.Value)
		}
	}
}

func TestMCFDumbbellFairSplit(t *testing.T) {
	// Two 2-member sessions across a capacity-10 bridge, equal demands:
	// lambda must approach 5 and the rates must be nearly equal.
	net, _ := topology.Dumbbell(3, 100, 10)
	p := buildProblem(t, net.Graph, [][]graph.NodeID{{0, 3}, {1, 4}}, nil, core.RoutingIP)
	res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 5*0.85 || res.Lambda > 5+1e-6 {
		t.Fatalf("lambda %v, want ~5", res.Lambda)
	}
	r0, r1 := res.SessionRate(0), res.SessionRate(1)
	if math.Abs(r0-r1) > 0.15*math.Max(r0, r1) {
		t.Fatalf("rates %v vs %v not near-equal", r0, r1)
	}
}

func TestMCFRaisesMinRateOverMaxFlow(t *testing.T) {
	// The central fairness claim: MaxConcurrentFlow's minimum session rate
	// is at least MaxFlow's, which may starve the small session.
	r := rng.New(42)
	net, err := topology.Waxman(topology.DefaultWaxman(50), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(50)
	sets := [][]graph.NodeID{perm[0:7], perm[7:12]}
	p := buildProblem(t, net.Graph, sets, []float64{100, 100}, core.RoutingIP)
	const eps = 0.05
	mf, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if mcf.MinSessionRate() < mf.MinSessionRate()*(1-3*eps)-1e-9 {
		t.Fatalf("MCF min rate %v below MaxFlow min rate %v", mcf.MinSessionRate(), mf.MinSessionRate())
	}
	// And MaxFlow's throughput dominates MCF's (it maximizes it).
	if mf.OverallThroughput() < mcf.OverallThroughput()*(1-3*eps)-1e-9 {
		t.Fatalf("MaxFlow throughput %v below MCF %v", mf.OverallThroughput(), mcf.OverallThroughput())
	}
}

func TestMCFSurplusPassOnlyAdds(t *testing.T) {
	r := rng.New(21)
	net, err := topology.Waxman(topology.DefaultWaxman(40), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(40)
	sets := [][]graph.NodeID{perm[0:6], perm[6:10]}
	p := buildProblem(t, net.Graph, sets, []float64{100, 100}, core.RoutingIP)
	const eps = 0.07
	pure, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	withSurplus, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps, SurplusPass: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := withSurplus.CheckFeasible(1e-6); err != nil {
		t.Fatal(err)
	}
	if withSurplus.OverallThroughput() < pure.OverallThroughput()*0.999 {
		t.Fatalf("surplus pass reduced throughput: %v -> %v",
			pure.OverallThroughput(), withSurplus.OverallThroughput())
	}
	// Each session keeps (almost) its fair share.
	for i := range p.Sessions {
		if withSurplus.SessionRate(i) < pure.SessionRate(i)*0.95 {
			t.Fatalf("session %d lost its fair share: %v -> %v",
				i, pure.SessionRate(i), withSurplus.SessionRate(i))
		}
	}
}

func TestMCFBetasAreSingleSessionMaxFlows(t *testing.T) {
	// Beta values reported by the prestep must be bitwise the result of
	// running MaxFlow on each session alone, in both routing modes. The
	// sessions share members and repeat sizes, so several subproblems start
	// from the same initial lengths and read the same plane sources.
	net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]graph.NodeID{{0, 10, 20}, {5, 25}, {0, 10, 25}, {5, 20}, {10, 20, 25}}
	const eps = 0.1
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := buildProblem(t, net.Graph, sets, nil, mode)
		res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: eps})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range sets {
			solo := buildProblem(t, net.Graph, sets[i:i+1], nil, mode)
			mf, err := core.MaxFlow(solo, core.MaxFlowOptions{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if res.Betas[i] != mf.SessionRate(0) {
				t.Fatalf("%v: beta[%d] = %.17g, solo max flow %.17g", mode, i, res.Betas[i], mf.SessionRate(0))
			}
		}
		if res.PrestepMSTOps <= 0 {
			t.Fatalf("%v: prestep ops not counted", mode)
		}
	}
}

func TestMCFLambdaIsMinDemandRatio(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, net.Graph, [][]graph.NodeID{{0, 15, 29}, {7, 21}}, []float64{2, 5}, core.RoutingIP)
	res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	min := math.Inf(1)
	for i, s := range p.Sessions {
		if v := res.SessionRate(i) / s.Demand; v < min {
			min = v
		}
	}
	if math.Abs(min-res.Lambda) > 1e-9 {
		t.Fatalf("Lambda %v != min ratio %v", res.Lambda, min)
	}
}
