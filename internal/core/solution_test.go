package core_test

import (
	"testing"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// TestSolverFlowsHoldDistinctTrees checks the Solution contract that each
// session's Flows is a set of distinct trees, for every solver that merges
// repeated tree selections: MaxFlow, MaxConcurrentFlow with the surplus pass
// (whose residual-graph trees are merged into the fair solution), and Warm
// snapshots along a join/leave script that re-anchors cold midway, so warm
// repair routes onto anchored flows through a freshly rebuilt index.
func TestSolverFlowsHoldDistinctTrees(t *testing.T) {
	r := rng.New(23)
	net, err := topology.Waxman(topology.DefaultWaxman(30), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	perm := r.Perm(30)
	memberSets := [][]graph.NodeID{
		perm[0:4], perm[4:7], perm[7:10], perm[10:15], perm[15:18], perm[18:22],
	}
	distinct := func(t *testing.T, label string, sol *core.Solution) {
		t.Helper()
		for i, flows := range sol.Flows {
			seen := make(map[string]bool, len(flows))
			for _, tf := range flows {
				key := tf.Tree.Key()
				if seen[key] {
					t.Fatalf("%s: session %d holds tree %q twice", label, i, key)
				}
				seen[key] = true
			}
		}
	}

	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		t.Run(mode.String(), func(t *testing.T) {
			sessions := make([]*overlay.Session, 4)
			for i := range sessions {
				s, err := overlay.NewSession(i, memberSets[i], float64(1+i%2))
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			p, err := core.NewProblem(g, sessions, mode)
			if err != nil {
				t.Fatal(err)
			}
			solver := core.SolverOptions{Workers: 2}
			mf, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1, SolverOptions: solver})
			if err != nil {
				t.Fatal(err)
			}
			distinct(t, "MaxFlow", mf)
			mcf, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{Epsilon: 0.1, SolverOptions: solver, SurplusPass: true})
			if err != nil {
				t.Fatal(err)
			}
			distinct(t, "MaxConcurrentFlow+surplus", mcf.Solution)

			w, err := core.NewWarm(g, core.WarmOptions{Epsilon: 0.1, SolverOptions: solver})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// snap checks the snapshot and whether the refresh behind it
			// took the warm path.
			snap := func(label string, wantWarm bool) {
				before := w.Stats().WarmRefreshes
				sol, err := w.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if warm := w.Stats().WarmRefreshes > before; warm != wantWarm {
					t.Fatalf("%s: warm refresh %v, want %v (stats %+v)", label, warm, wantWarm, w.Stats())
				}
				distinct(t, label, sol)
			}
			for slot := 0; slot < 4; slot++ {
				warmJoin(t, w, g, slot, memberSets[slot], float64(1+slot%2), mode)
			}
			snap("anchor", false)
			warmJoin(t, w, g, 4, memberSets[4], 1, mode)
			snap("warm join", true)
			if err := w.Leave(1); err != nil {
				t.Fatal(err)
			}
			// A fault latches a cold re-anchor, which maps slots 2..4 to
			// dense sessions 1..3; the join after it is repaired warm on top
			// of the new anchor's flows.
			if err := w.Fault(0); err != nil {
				t.Fatal(err)
			}
			snap("re-anchor", false)
			warmJoin(t, w, g, 5, memberSets[5], 2, mode)
			snap("warm join after re-anchor", true)
		})
	}
}
