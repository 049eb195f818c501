package overcast_test

import (
	"math"
	"testing"

	"overcast"
)

func demoSystem(t testing.TB, routing overcast.Routing) *overcast.System {
	t.Helper()
	net, err := overcast.WaxmanNetwork(50, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := overcast.NewSystem(net, []overcast.Session{
		{Members: []int{2, 11, 23, 31, 47}, Demand: 100},
		{Members: []int{5, 19, 37}, Demand: 100},
	}, routing)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNetworkConstructors(t *testing.T) {
	net, err := overcast.WaxmanNetwork(30, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes() != 30 || net.Links() < 29 || net.TotalCapacity() <= 0 || net.Name() == "" {
		t.Fatalf("network accessors wrong: %d/%d", net.Nodes(), net.Links())
	}
	tl, err := overcast.TwoLevelNetwork(3, 8, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Nodes() != 24 {
		t.Fatalf("two-level nodes %d", tl.Nodes())
	}
	custom, err := overcast.CustomNetwork(3, []overcast.Link{
		{From: 0, To: 1, Capacity: 5}, {From: 1, To: 2, Capacity: 5},
	})
	if err != nil || custom.Links() != 2 {
		t.Fatalf("custom network: %v", err)
	}
	if _, err := overcast.CustomNetwork(4, []overcast.Link{{From: 0, To: 1, Capacity: 5}}); err == nil {
		t.Fatal("disconnected custom network accepted")
	}
	if _, err := overcast.CustomNetwork(2, []overcast.Link{{From: 0, To: 0, Capacity: 5}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	net, _ := overcast.WaxmanNetwork(10, 100, 1)
	if _, err := overcast.NewSystem(nil, nil, overcast.RoutingIP); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := overcast.NewSystem(net, []overcast.Session{{Members: []int{1}, Demand: 1}}, overcast.RoutingIP); err == nil {
		t.Fatal("1-member session accepted")
	}
	sys, err := overcast.NewSystem(net, []overcast.Session{{Members: []int{0, 5}, Demand: 1}}, overcast.RoutingIP)
	if err != nil || sys.NumSessions() != 1 || sys.Network() != net {
		t.Fatalf("system wrong: %v", err)
	}
}

func TestMaxFlowEndToEnd(t *testing.T) {
	sys := demoSystem(t, overcast.RoutingIP)
	if _, err := sys.MaxFlow(0); err == nil {
		t.Fatal("ratio 0 accepted")
	}
	if _, err := sys.MaxFlow(1); err == nil {
		t.Fatal("ratio 1 accepted")
	}
	alloc, err := sys.MaxFlow(0.93)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Verify(); err != nil {
		t.Fatal(err)
	}
	if alloc.OverallThroughput() <= 0 || alloc.SpanningTreeOps() <= 0 {
		t.Fatal("empty allocation")
	}
	for i := 0; i < sys.NumSessions(); i++ {
		trees := alloc.Trees(i)
		if len(trees) != alloc.TreeCount(i) || len(trees) == 0 {
			t.Fatalf("session %d trees inconsistent", i)
		}
		sum := 0.0
		for _, tr := range trees {
			if tr.Rate <= 0 || tr.PhysicalHops <= 0 || len(tr.Pairs) == 0 {
				t.Fatalf("bad tree %+v", tr)
			}
			sum += tr.Rate
		}
		if math.Abs(sum-alloc.SessionRate(i)) > 1e-9 {
			t.Fatalf("tree rates don't sum to session rate")
		}
		rd := alloc.RateDistribution(i)
		for j := 1; j < len(rd); j++ {
			if rd[j] > rd[j-1] {
				t.Fatal("rate distribution not sorted")
			}
		}
	}
	if alloc.MaxCongestion() > 1+1e-9 {
		t.Fatal("allocation overloads a link")
	}
	if u := alloc.LinkUtilizations(); len(u) == 0 {
		t.Fatal("no utilizations")
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	sys := demoSystem(t, overcast.RoutingIP)
	alloc, err := sys.MaxFlow(0.92)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alloc.Simulate(30, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.OfferedRate {
		if math.Abs(rep.DeliveredRate[i]-rep.OfferedRate[i]) > 1e-9 {
			t.Fatalf("session %d lost traffic in simulation", i)
		}
	}
	if rep.PeakLinkUtilization > 1+1e-9 {
		t.Fatal("simulation saw link overload for a feasible allocation")
	}
	if math.Abs(rep.OverallDelivered-alloc.OverallThroughput()) > 1e-6 {
		t.Fatal("delivered != allocated")
	}
}

func TestMaxConcurrentFlowEndToEnd(t *testing.T) {
	sys := demoSystem(t, overcast.RoutingIP)
	if _, err := sys.MaxConcurrentFlow(0, false); err == nil {
		t.Fatal("ratio 0 accepted")
	}
	fair, err := sys.MaxConcurrentFlow(0.92, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fair.Verify(); err != nil {
		t.Fatal(err)
	}
	if fair.Lambda <= 0 {
		t.Fatal("lambda not positive")
	}
	for i := 0; i < sys.NumSessions(); i++ {
		if fair.SessionRate(i) < fair.Lambda*100-1e-6 {
			t.Fatalf("session %d below fair share", i)
		}
	}
	// Fairness vs throughput tradeoff against MaxFlow.
	mf, err := sys.MaxFlow(0.92)
	if err != nil {
		t.Fatal(err)
	}
	if fair.MinSessionRate() < mf.MinSessionRate()*0.85 {
		t.Fatalf("fair min rate %v below MaxFlow min rate %v", fair.MinSessionRate(), mf.MinSessionRate())
	}
	withSurplus, err := sys.MaxConcurrentFlow(0.92, true)
	if err != nil {
		t.Fatal(err)
	}
	if withSurplus.OverallThroughput() < fair.OverallThroughput()*0.999 {
		t.Fatal("surplus pass lost throughput")
	}
}

func TestLimitTreesAndRounding(t *testing.T) {
	sys := demoSystem(t, overcast.RoutingIP)
	fair, err := sys.MaxConcurrentFlow(0.92, true)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := sys.LimitTrees(fair.Allocation, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := limited.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.NumSessions(); i++ {
		if limited.TreeCount(i) > 5 {
			t.Fatalf("limit violated: %d trees", limited.TreeCount(i))
		}
	}
	if limited.OverallThroughput() > fair.OverallThroughput()+1e-9 {
		t.Fatal("limited allocation exceeds base")
	}
	rounded, congestion, err := sys.RoundToSingleTrees(fair.Allocation, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := rounded.Verify(); err != nil {
		t.Fatal(err)
	}
	if congestion <= 0 {
		t.Fatal("no congestion reported")
	}
	for i := 0; i < sys.NumSessions(); i++ {
		if rounded.TreeCount(i) != 1 {
			t.Fatalf("rounding left %d trees", rounded.TreeCount(i))
		}
	}
}

func TestBaselinesEndToEnd(t *testing.T) {
	sys := demoSystem(t, overcast.RoutingIP)
	mf, err := sys.MaxFlow(0.93)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sys.SingleTreeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	split, err := sys.SplitStreamBaseline()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := sys.RandomForestBaseline(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*overcast.Allocation{"single": single, "split": split, "rf": rf} {
		if err := a.Verify(); err != nil {
			t.Fatalf("%s infeasible: %v", name, err)
		}
		// Baselines are feasible, so they cannot exceed the optimum; allow
		// the FPTAS's approximation slack.
		if a.OverallThroughput() > mf.OverallThroughput()/0.93+1e-6 {
			t.Fatalf("%s beats the optimum", name)
		}
	}
}

func TestMultiTreeBeatsSingleTreeOnK4(t *testing.T) {
	// On K4 with uniform capacity c, a 4-member session's best single tree
	// carries c, but K4 packs two edge-disjoint spanning trees
	// (Nash-Williams strength 2), so the multi-tree optimum is 2c.
	net, err := overcast.CustomNetwork(4, []overcast.Link{
		{From: 0, To: 1, Capacity: 10}, {From: 0, To: 2, Capacity: 10},
		{From: 0, To: 3, Capacity: 10}, {From: 1, To: 2, Capacity: 10},
		{From: 1, To: 3, Capacity: 10}, {From: 2, To: 3, Capacity: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := overcast.NewSystem(net, []overcast.Session{
		{Members: []int{0, 1, 2, 3}, Demand: 1},
	}, overcast.RoutingIP)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := sys.MaxFlow(0.95)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sys.SingleTreeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if got := single.SessionRate(0); math.Abs(got-10) > 1e-6 {
		t.Fatalf("single-tree rate %v, want 10", got)
	}
	if got := mf.SessionRate(0); got < 0.95*20-1e-6 || got > 20+1e-6 {
		t.Fatalf("multi-tree rate %v, want ~20", got)
	}
}

func TestArbitraryRoutingSystem(t *testing.T) {
	sysIP := demoSystem(t, overcast.RoutingIP)
	sysArb := demoSystem(t, overcast.RoutingArbitrary)
	ip, err := sysIP.MaxFlow(0.92)
	if err != nil {
		t.Fatal(err)
	}
	arb, err := sysArb.MaxFlow(0.92)
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.Verify(); err != nil {
		t.Fatal(err)
	}
	if arb.OverallThroughput() < ip.OverallThroughput()*0.9 {
		t.Fatal("arbitrary routing lost throughput vs IP")
	}
}
