package core_test

import (
	"testing"

	"overcast/internal/core"
)

// TestRepairToggleBitIdentical pins the dirty-source-repair invariant: for
// both routing modes and every worker count, the run must reproduce the
// workers=1 run bit for bit — a skipped refill serves exactly the bits a
// recompute would have produced, a subtree repair exactly the bits of a full
// refill. Under arbitrary routing the runs must actually have skipped
// refills and repaired subtrees, so the test cannot pass vacuously.
func TestRepairToggleBitIdentical(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.MCFResult
		for _, w := range workerCounts {
			res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
				Epsilon: 0.12, SurplusPass: true,
				SolverOptions: core.SolverOptions{Workers: w},
			})
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, w, err)
			}
			if mode == core.RoutingArbitrary {
				if res.Plane.Skipped+res.PrestepPlane.Skipped == 0 {
					t.Fatalf("workers=%d: no refill was ever skipped", w)
				}
				if subtree := res.Plane.SubtreeRepaired + res.PrestepPlane.SubtreeRepaired; subtree == 0 {
					t.Fatalf("workers=%d: %d subtree repairs", w, subtree)
				}
			}
			if base == nil {
				base = res
				continue
			}
			if res.Lambda != base.Lambda {
				t.Fatalf("mode=%v workers=%d: lambda %.17g != %.17g", mode, w, res.Lambda, base.Lambda)
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

// TestRepairToggleBitIdenticalMaxFlow covers the M1 iteration loop, where
// repair has the most room (one routed tree per iteration, every other
// session's sources untouched).
func TestRepairToggleBitIdenticalMaxFlow(t *testing.T) {
	p := workerSweepProblem(t, core.RoutingArbitrary)
	var base *core.Solution
	for _, w := range workerCounts {
		sol, err := core.MaxFlow(p, core.MaxFlowOptions{
			Epsilon: 0.1, SolverOptions: core.SolverOptions{Workers: w},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sol.Plane.Skipped == 0 {
			t.Fatalf("workers=%d: MaxFlow repair never skipped a refill", w)
		}
		if sol.Plane.SubtreeRepaired == 0 {
			t.Fatalf("workers=%d: %d subtree repairs", w, sol.Plane.SubtreeRepaired)
		}
		if base == nil {
			base = sol
			continue
		}
		sameSolution(t, "maxflow-repair", base, sol)
	}
}
