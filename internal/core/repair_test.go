package core_test

import (
	"testing"

	"overcast/internal/core"
	"overcast/internal/overlay"
)

// persistentPlaneModes are the plane modes whose rows persist across rounds
// and so take skip/repair decisions; PlaneOff is covered by the plane sweep.
var persistentPlaneModes = []overlay.PlaneMode{overlay.PlaneSubtree, overlay.PlaneFull}

// TestRepairToggleBitIdentical pins the dirty-source-repair invariant: for
// both routing modes, every worker count and both persistent-plane modes,
// the run must reproduce the workers=1 subtree run bit for bit — a skipped
// refill serves exactly the bits a recompute would have produced, a subtree
// repair exactly the bits of a full refill. Under arbitrary routing both
// modes must actually have skipped refills, subtree mode must have repaired
// subtrees and full mode never, so the test cannot pass vacuously.
func TestRepairToggleBitIdentical(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RoutingIP, core.RoutingArbitrary} {
		p := workerSweepProblem(t, mode)
		var base *core.MCFResult
		for _, w := range workerCounts {
			for _, plane := range persistentPlaneModes {
				res, err := core.MaxConcurrentFlow(p, core.MaxConcurrentFlowOptions{
					Epsilon: 0.12, SurplusPass: true,
					SolverOptions: core.SolverOptions{Workers: w, Plane: plane},
				})
				if err != nil {
					t.Fatalf("mode=%v workers=%d plane=%v: %v", mode, w, plane, err)
				}
				if mode == core.RoutingArbitrary {
					if res.Plane.Skipped+res.PrestepPlane.Skipped == 0 {
						t.Fatalf("workers=%d plane=%v: no refill was ever skipped", w, plane)
					}
					subtree := res.Plane.SubtreeRepaired + res.PrestepPlane.SubtreeRepaired
					if (plane == overlay.PlaneSubtree) != (subtree > 0) {
						t.Fatalf("workers=%d plane=%v: %d subtree repairs", w, plane, subtree)
					}
				}
				if base == nil {
					base = res
					continue
				}
				if res.Lambda != base.Lambda {
					t.Fatalf("mode=%v workers=%d plane=%v: lambda %.17g != %.17g", mode, w, plane, res.Lambda, base.Lambda)
				}
				for i := range res.Betas {
					if res.Betas[i] != base.Betas[i] {
						t.Fatalf("mode=%v workers=%d plane=%v: beta[%d] %.17g != %.17g", mode, w, plane, i, res.Betas[i], base.Betas[i])
					}
				}
				sameSolution(t, mode.String(), base.Solution, res.Solution)
			}
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
		for _, plane := range persistentPlaneModes {
			sol, err := core.MaxFlow(p, core.MaxFlowOptions{
				Epsilon: 0.1, SolverOptions: core.SolverOptions{Workers: w, Plane: plane},
			})
			if err != nil {
				t.Fatalf("workers=%d plane=%v: %v", w, plane, err)
			}
			if sol.Plane.Skipped == 0 {
				t.Fatalf("workers=%d plane=%v: MaxFlow repair never skipped a refill", w, plane)
			}
			if (plane == overlay.PlaneSubtree) != (sol.Plane.SubtreeRepaired > 0) {
				t.Fatalf("workers=%d plane=%v: %d subtree repairs", w, plane, sol.Plane.SubtreeRepaired)
			}
			if base == nil {
				base = sol
				continue
			}
			sameSolution(t, "maxflow-repair", base, sol)
		}
	}
}
