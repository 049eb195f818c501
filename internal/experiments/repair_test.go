package experiments

import (
	"math"
	"testing"

	"overcast/internal/core"
	"overcast/internal/overlay"
	"overcast/internal/workload"
)

// TestRepairToggleBitIdenticalScenarios sweeps the plane modes against every
// registered workload scenario at workers 1/2/8: the arbitrary-routing
// MaxFlow outputs (rates, tree counts, op counts) must be bitwise
// independent of both knobs, and subtree mode must have skipped at least one
// refill and repaired at least one subtree somewhere in the sweep — no
// invariant may be pinned vacuously.
func TestRepairToggleBitIdenticalScenarios(t *testing.T) {
	totalSkipped, totalSubtree := 0, 0
	for _, scenario := range workload.Names() {
		si, err := NewScaleInstance(5151, ScaleConfig{
			Nodes: 150, Sessions: 8, Scenario: scenario, Arbitrary: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		type fp struct {
			mstOps int
			rates  [8]float64
			trees  [8]int
		}
		var base *fp
		for _, workers := range []int{1, 2, 8} {
			for _, plane := range []overlay.PlaneMode{overlay.PlaneSubtree, overlay.PlaneOff} {
				sol, err := core.MaxFlow(si.Problem, core.MaxFlowOptions{
					Epsilon:       0.35,
					SolverOptions: core.SolverOptions{Workers: workers, Plane: plane},
				})
				if err != nil {
					t.Fatalf("%s workers=%d plane=%v: %v", scenario, workers, plane, err)
				}
				if plane == overlay.PlaneSubtree {
					totalSkipped += sol.Plane.Skipped
					totalSubtree += sol.Plane.SubtreeRepaired
				} else if sol.Plane.SubtreeRepaired != 0 {
					t.Fatalf("%s workers=%d plane=%v: SubtreeRepaired=%d",
						scenario, workers, plane, sol.Plane.SubtreeRepaired)
				}
				got := fp{mstOps: sol.MSTOps}
				for i := range si.Sessions {
					got.rates[i] = sol.SessionRate(i)
					got.trees[i] = sol.TreeCount(i)
				}
				if base == nil {
					base = &got
					continue
				}
				if got != *base {
					t.Fatalf("%s workers=%d plane=%v: fingerprint differs:\n%+v\nvs\n%+v",
						scenario, workers, plane, got, *base)
				}
			}
		}
	}
	if totalSkipped == 0 {
		t.Fatal("subtree mode never skipped a refill across any scenario — the sweep is vacuous")
	}
	if totalSubtree == 0 {
		t.Fatal("subtree repair never fired across any scenario — the sweep is vacuous")
	}
}

// TestReportDeterministicAndSane pins the MF-vs-MCF report: rows must be a
// pure function of the seed (they are detdump-fingerprinted), and the
// directional story must hold — MCF equalizes demand-satisfaction ratios
// (Jain fairness near 1, and never below MaxFlow's), which is the entire
// point of the M2 objective.
func TestReportDeterministicAndSane(t *testing.T) {
	tiers := []ReportTier{{Name: "small", Nodes: 300, Sessions: 12}}
	rows, err := MFvsMCFReport(2029, 0.3, core.SolverOptions{}, nil, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(workload.Names()) {
		t.Fatalf("%d rows for %d scenarios", len(rows), len(workload.Names()))
	}
	for i := 0; i < len(rows); i += 2 {
		mf, mcf := rows[i], rows[i+1]
		if mf.Solver != "maxflow" || mcf.Solver != "mcf" || mf.Scenario != mcf.Scenario {
			t.Fatalf("row pairing broken at %d: %+v / %+v", i, mf, mcf)
		}
		if mcf.Fairness < 0.99 {
			t.Errorf("%s: MCF fairness %.4f, want ~1 (max-min equalizes ratios)", mcf.Scenario, mcf.Fairness)
		}
		if mcf.Fairness < mf.Fairness {
			t.Errorf("%s: MCF fairness %.4f below MaxFlow's %.4f", mcf.Scenario, mcf.Fairness, mf.Fairness)
		}
		if mcf.MinRatio < mf.MinRatio {
			t.Errorf("%s: MCF min satisfaction %.4f below MaxFlow's %.4f — M2 lost its own objective", mcf.Scenario, mcf.MinRatio, mf.MinRatio)
		}
	}
	again, err := MFvsMCFReport(2029, 0.3,
		core.SolverOptions{Workers: 2, Plane: overlay.PlaneOff},
		[]string{"cdn"}, tiers)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Scenario != "cdn" {
			continue
		}
		found := false
		for _, b := range again {
			if b.Solver == row.Solver && b == row {
				found = true
			}
		}
		if !found {
			t.Fatalf("cdn %s row not reproduced across workers/plane/repair settings: %+v vs %+v", row.Solver, row, again)
		}
	}
}

// TestWarmChurnArbitraryPlaneIndependent replays a warm arbitrary-routing
// churn under the plane and without it: every snapshot's throughput must be
// bitwise equal. Its joins and leaves grow and release the oracles of one
// long-lived runner, so the plane's rows meet read targets they were not
// checked for.
func TestWarmChurnArbitraryPlaneIndependent(t *testing.T) {
	run := func(plane overlay.PlaneMode) []float64 {
		rep, err := WarmChurnRun(5, WarmChurnConfig{
			ChurnTrace: ChurnTrace{Nodes: 50, Horizon: 30},
			Arbitrary:  true, Epsilon: 0.5, SnapshotEvery: 2,
			SolverOptions: core.SolverOptions{Plane: plane},
		})
		if err != nil {
			t.Fatalf("plane %v: %v", plane, err)
		}
		return rep.Throughputs
	}
	on, off := run(overlay.PlaneSubtree), run(overlay.PlaneOff)
	if len(on) != len(off) || len(on) == 0 {
		t.Fatalf("%d snapshots under the plane, %d without", len(on), len(off))
	}
	for i := range on {
		if math.Float64bits(on[i]) != math.Float64bits(off[i]) {
			t.Fatalf("snapshot %d: throughput %.17g under the plane, %.17g without", i, on[i], off[i])
		}
	}
}
