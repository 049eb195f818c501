package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

func ringOracle(t testing.TB, g *graph.Graph, rt *routing.IPRoutes, id int, members []graph.NodeID) overlay.TreeOracle {
	t.Helper()
	s, err := overlay.NewSession(id, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := overlay.NewArbitraryOracle(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLeaveRestoresState(t *testing.T) {
	// After join+leave, the allocator must behave exactly like a fresh one:
	// congestion zero and the next arrival picks the same tree it would
	// have picked on an idle network.
	net, _ := topology.Ring(6, 10)
	g := net.Graph
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = i
	}
	rt := routing.NewIPRoutes(g, all)

	fresh, _ := core.NewOnline(g, 25)
	freshTree, err := fresh.Join(ringOracle(t, g, rt, 0, []graph.NodeID{0, 3}))
	if err != nil {
		t.Fatal(err)
	}

	churned, _ := core.NewOnline(g, 25)
	if _, err := churned.Join(ringOracle(t, g, rt, 0, []graph.NodeID{0, 3})); err != nil {
		t.Fatal(err)
	}
	if churned.MaxCongestion() <= 0 {
		t.Fatal("no congestion after join")
	}
	if err := churned.Leave(0); err != nil {
		t.Fatal(err)
	}
	if churned.MaxCongestion() > 1e-12 {
		t.Fatalf("congestion %v after leave, want 0", churned.MaxCongestion())
	}
	if churned.ActiveSessions() != 0 {
		t.Fatal("active count wrong")
	}
	// The departed session's tree is released: its congestion reads 0.
	if l := churned.SessionMaxCongestion(0); l != 0 {
		t.Fatalf("departed session congestion %v, want 0", l)
	}
	nextTree, err := churned.Join(ringOracle(t, g, rt, 1, []graph.NodeID{0, 3}))
	if err != nil {
		t.Fatal(err)
	}
	// Same physical tree as the fresh allocator's first arrival.
	fu, nu := freshTree.Use(), nextTree.Use()
	if len(fu) != len(nu) {
		t.Fatalf("post-leave tree differs: %d vs %d edges", len(fu), len(nu))
	}
	for i := range fu {
		if fu[i] != nu[i] {
			t.Fatalf("post-leave tree differs at edge %d", i)
		}
	}
}

func TestLeaveFreesCapacityForLaterArrivals(t *testing.T) {
	// Ring of 4: session A takes one side; after A leaves, session B should
	// take that (shortest) side again rather than detour.
	net, _ := topology.Ring(4, 10)
	g := net.Graph
	all := []graph.NodeID{0, 1, 2, 3}
	rt := routing.NewIPRoutes(g, all)
	on, _ := core.NewOnline(g, 50)
	ta, err := on.Join(ringOracle(t, g, rt, 0, []graph.NodeID{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := on.Leave(0); err != nil {
		t.Fatal(err)
	}
	tb, err := on.Join(ringOracle(t, g, rt, 1, []graph.NodeID{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	au, bu := ta.Use(), tb.Use()
	if len(au) != len(bu) {
		t.Fatalf("B should reuse A's side")
	}
	for i := range au {
		if au[i].Edge != bu[i].Edge {
			t.Fatalf("B detoured although A left")
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	net, _ := topology.Ring(4, 10)
	on, _ := core.NewOnline(net.Graph, 10)
	if err := on.Leave(0); err == nil {
		t.Fatal("leave with no sessions accepted")
	}
	rt := routing.NewIPRoutes(net.Graph, []graph.NodeID{0, 1, 2, 3})
	if _, err := on.Join(ringOracle(t, net.Graph, rt, 0, []graph.NodeID{0, 2})); err != nil {
		t.Fatal(err)
	}
	if err := on.Leave(1); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
	if err := on.Leave(0); err != nil {
		t.Fatal(err)
	}
	if err := on.Leave(0); err == nil {
		t.Fatal("double leave accepted")
	}
	if _, err := on.Finalize(); err == nil {
		t.Fatal("finalize with zero active sessions accepted")
	}
}

func TestChurnFeasibilityProperty(t *testing.T) {
	// Any interleaving of joins and leaves must keep the finalized
	// solution feasible and the congestion bookkeeping nonnegative.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		net, err := topology.Waxman(topology.DefaultWaxman(25), r)
		if err != nil {
			return false
		}
		g := net.Graph
		all := make([]graph.NodeID, g.NumNodes())
		for i := range all {
			all[i] = i
		}
		rt := routing.NewIPRoutes(g, all)
		on, err := core.NewOnline(g, 20)
		if err != nil {
			return false
		}
		var alive []int
		nextID := 0
		for step := 0; step < 25; step++ {
			if len(alive) > 0 && r.Float64() < 0.4 {
				pick := r.Intn(len(alive))
				if err := on.Leave(alive[pick]); err != nil {
					return false
				}
				alive = append(alive[:pick], alive[pick+1:]...)
				continue
			}
			members := r.Sample(g.NumNodes(), 2+r.Intn(4))
			s, err := overlay.NewSession(nextID, members, 1)
			if err != nil {
				return false
			}
			oracle, err := overlay.NewFixedOracle(g, rt, s)
			if err != nil {
				return false
			}
			if _, err := on.Join(oracle); err != nil {
				return false
			}
			alive = append(alive, nextID)
			nextID++
		}
		if on.ActiveSessions() != len(alive) {
			return false
		}
		if on.MaxCongestion() < 0 {
			return false
		}
		if len(alive) == 0 {
			return true
		}
		sol, err := on.Finalize()
		if err != nil {
			return false
		}
		if len(sol.Sessions) != len(alive) {
			return false
		}
		return sol.CheckFeasible(1e-9) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveRollbackIsNumericallyExact(t *testing.T) {
	// Join/leave the same session many times: lengths must not drift.
	net, _ := topology.Ring(5, 10)
	g := net.Graph
	rt := routing.NewIPRoutes(g, []graph.NodeID{0, 1, 2, 3, 4})
	on, _ := core.NewOnline(g, 100)
	for cycle := 0; cycle < 200; cycle++ {
		if _, err := on.Join(ringOracle(t, g, rt, cycle, []graph.NodeID{0, 2})); err != nil {
			t.Fatal(err)
		}
		if err := on.Leave(cycle); err != nil {
			t.Fatal(err)
		}
	}
	if c := on.MaxCongestion(); math.Abs(c) > 1e-9 {
		t.Fatalf("congestion drifted to %v after 200 join/leave cycles", c)
	}
}
