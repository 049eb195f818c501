package core

import (
	"fmt"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// TestPrestepPartialKnowledge pins the known-beta path of the prestep: a
// solve that is handed some sessions' betas returns bitwise the Betas,
// Lambda and flows of a solve that computes them all, and spends prestep
// MSTOps exactly on the solo MaxFlows of the sessions it was not handed.
func TestPrestepPartialKnowledge(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	sets := [][]graph.NodeID{{0, 10, 20}, {5, 25}, {0, 10, 25}, {5, 20}, {10, 20, 25}}
	const eps = 0.1
	problem := func(mode RoutingMode) *Problem {
		sessions := make([]*overlay.Session, len(sets))
		for i, m := range sets {
			s, err := overlay.NewSession(i, m, float64(1+i%2))
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		p, err := NewProblem(g, sessions, mode)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for _, workers := range []int{1, 3} {
			opts := MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: workers}}
			full, _, err := maxConcurrentFlow(problem(mode), opts, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, knownSet := range [][]int{{}, {0, 2, 3}, {4}, {0, 1, 2, 3, 4}} {
				name := fmt.Sprintf("%v/w%d/known%v", mode, workers, knownSet)
				known := make([]float64, len(sets))
				for _, i := range knownSet {
					known[i] = full.Betas[i]
				}
				p := problem(mode)
				res, _, err := maxConcurrentFlow(p, opts, false, known)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range sets {
					if res.Betas[i] != full.Betas[i] {
						t.Fatalf("%s: beta[%d] = %.17g, want %.17g", name, i, res.Betas[i], full.Betas[i])
					}
				}
				if res.Lambda != full.Lambda {
					t.Fatalf("%s: lambda %.17g, want %.17g", name, res.Lambda, full.Lambda)
				}
				if got, want := testFingerprint(res.Solution), testFingerprint(full.Solution); got != want {
					t.Fatalf("%s: flows differ from the all-unknown solve", name)
				}
				wantOps := 0
				for i := range sets {
					if known[i] == 0 {
						wantOps += soloMaxFlowOps(t, p, i, eps)
					}
				}
				if res.PrestepMSTOps != wantOps {
					t.Fatalf("%s: prestep MSTOps %d, want %d (solo MaxFlows of the unknown sessions)", name, res.PrestepMSTOps, wantOps)
				}
			}
		}
	}
}
