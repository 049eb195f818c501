package core_test

import (
	"testing"

	"overcast/internal/core"
	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// workerCounts is the sweep the CI determinism gate runs detdump at, plus
// the default 0 (GOMAXPROCS); the in-process test pins the same invariant
// without shelling out.
var workerCounts = []int{1, 2, 8, 0}

// sameSolution asserts two solutions are bit-identical: same op counts, same
// trees in the same order, and exactly equal (not merely close) rates.
func sameSolution(t *testing.T, label string, a, b *core.Solution) {
	t.Helper()
	if a.MSTOps != b.MSTOps || a.Phases != b.Phases {
		t.Fatalf("%s: ops/phases differ: %d/%d vs %d/%d", label, a.MSTOps, a.Phases, b.MSTOps, b.Phases)
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: session count differs: %d vs %d", label, len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if len(a.Flows[i]) != len(b.Flows[i]) {
			t.Fatalf("%s: session %d tree count differs: %d vs %d", label, i, len(a.Flows[i]), len(b.Flows[i]))
		}
		for j := range a.Flows[i] {
			fa, fb := a.Flows[i][j], b.Flows[i][j]
			if fa.Tree.Key() != fb.Tree.Key() {
				t.Fatalf("%s: session %d tree %d differs:\n%s\nvs\n%s", label, i, j, fa.Tree.Key(), fb.Tree.Key())
			}
			if fa.Rate != fb.Rate {
				t.Fatalf("%s: session %d tree %d rate %.17g != %.17g", label, i, j, fa.Rate, fb.Rate)
			}
		}
	}
}

// workerSweepProblem builds a moderately contended instance: enough sessions
// that phase rounds stay multi-session, with shared core links so trees
// collide and tie-breaks matter.
func workerSweepProblem(t *testing.T, mode core.RoutingMode) *core.Problem {
	t.Helper()
	r := rng.New(77)
	net, err := topology.Waxman(topology.DefaultWaxman(60), r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(60)
	sets := [][]graph.NodeID{perm[0:6], perm[6:10], perm[10:15], perm[15:18], perm[18:22]}
	return buildProblem(t, net.Graph, sets, []float64{100, 50, 80, 120, 60}, mode)
}

// TestMaxFlowBitIdenticalAcrossWorkerCounts pins the tentpole invariant for
// M1: the worker-pool size moves wall-clock only, never output bits.
func TestMaxFlowBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.Solution
		for _, w := range workerCounts {
			sol, err := core.MaxFlow(p, core.MaxFlowOptions{Epsilon: 0.1, SolverOptions: core.SolverOptions{Workers: w}})
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, w, err)
			}
			if base == nil {
				base = sol
				continue
			}
			sameSolution(t, mode.String(), base, sol)
		}
	}
}

// TestMCFBitIdenticalAcrossWorkerCounts pins the same invariant for M2,
// covering the batched phase loop, the parallel beta prestep, and the
// surplus pass.
func TestMCFBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.MCFResult
		for _, w := range workerCounts {
			res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
				Epsilon: 0.12, SurplusPass: true, SolverOptions: core.SolverOptions{Workers: w},
			})
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, w, err)
			}
			if err := res.CheckFeasible(1e-9); err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, w, err)
			}
			if base == nil {
				base = res
				continue
			}
			if res.Lambda != base.Lambda {
				t.Fatalf("mode=%v workers=%d: lambda %.17g != %.17g", mode, w, res.Lambda, base.Lambda)
			}
			if res.PrestepMSTOps != base.PrestepMSTOps {
				t.Fatalf("mode=%v workers=%d: prestep ops %d != %d", mode, w, res.PrestepMSTOps, base.PrestepMSTOps)
			}
			for i := range res.Betas {
				if res.Betas[i] != base.Betas[i] {
					t.Fatalf("mode=%v workers=%d: beta[%d] %.17g != %.17g", mode, w, i, res.Betas[i], base.Betas[i])
				}
			}
			sameSolution(t, mode.String(), base.Solution, res.Solution)
		}
	}
}

// TestPlaneToggleBitIdentical pins the shared-SSSP-plane invariant: for both
// routing modes and every worker count, turning the plane off must reproduce
// the default subtree-mode run bit for bit (distances from an identical Dijkstra over an
// identical snapshot are bitwise equal regardless of which stage computes
// them). Under arbitrary routing the enabled run must actually have used the
// plane, so the test cannot pass vacuously.
func TestPlaneToggleBitIdentical(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.MCFResult
		for _, w := range workerCounts {
			for _, plane := range []overlay.PlaneMode{overlay.PlaneSubtree, overlay.PlaneOff} {
				disable := plane == overlay.PlaneOff
				res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
					Epsilon: 0.12, SurplusPass: true,
					SolverOptions: core.SolverOptions{Workers: w, Plane: plane},
				})
				if err != nil {
					t.Fatalf("mode=%v workers=%d disable=%v: %v", mode, w, disable, err)
				}
				if mode == core.RoutingArbitrary && !disable && res.Plane.Sources == 0 {
					t.Fatalf("workers=%d: arbitrary-mode MCF never used the plane", w)
				}
				if disable && res.Plane != (overlay.PlaneStats{}) {
					t.Fatalf("workers=%d: plane disabled but counters %+v", w, res.Plane)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Lambda != base.Lambda {
					t.Fatalf("mode=%v workers=%d disable=%v: lambda %.17g != %.17g", mode, w, disable, res.Lambda, base.Lambda)
				}
				sameSolution(t, mode.String(), base.Solution, res.Solution)
			}
		}
	}
}
