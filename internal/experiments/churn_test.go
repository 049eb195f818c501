package experiments

import (
	"strings"
	"testing"

	"overcast/internal/core"
	"overcast/internal/overlay"
)

// TestChurnRunDeterministicAcrossWorkers replays the same scenario trace
// with 1 and 8 prefabrication workers: the sequential replay's outputs must
// be bit-identical (the worker pool only builds static route tables).
func TestChurnRunDeterministicAcrossWorkers(t *testing.T) {
	var base *ChurnReport
	for _, workers := range []int{1, 8} {
		rep, err := ChurnRun(41, ChurnConfig{Nodes: 200, Scenario: "cdn", SolverOptions: core.SolverOptions{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sessions == 0 || rep.PeakConcurrency == 0 {
			t.Fatalf("empty trace: %+v", rep)
		}
		if rep.MSTOps != rep.Sessions {
			t.Fatalf("joins must run one oracle call each: %d ops for %d sessions", rep.MSTOps, rep.Sessions)
		}
		if rep.PeakCongestion <= 0 {
			t.Fatalf("peak congestion %v", rep.PeakCongestion)
		}
		if rep.FinalActive == 0 || rep.Throughput <= 0 {
			t.Fatalf("no surviving allocation: %+v", rep)
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.PeakCongestion != base.PeakCongestion || rep.Throughput != base.Throughput ||
			rep.MinRate != base.MinRate || rep.FinalActive != base.FinalActive {
			t.Fatalf("worker count changed replay outputs:\n%+v\nvs\n%+v", base, rep)
		}
	}
}

// TestChurnRunScenarioShapes checks the workload mixes actually reach the
// trace: conferencing sessions stay small, livestream grows heavy tails.
func TestChurnRunScenarioShapes(t *testing.T) {
	conf, err := ChurnRun(7, ChurnConfig{Nodes: 250, Scenario: "conferencing"})
	if err != nil {
		t.Fatal(err)
	}
	live, err := ChurnRun(7, ChurnConfig{Nodes: 250, Scenario: "livestream"})
	if err != nil {
		t.Fatal(err)
	}
	// Same arrival process, same seed: livestream's Pareto sizes and higher
	// demands must produce strictly heavier peak congestion than small
	// conference rooms.
	if live.PeakCongestion <= conf.PeakCongestion {
		t.Fatalf("livestream congestion %v not above conferencing %v", live.PeakCongestion, conf.PeakCongestion)
	}
}

func TestChurnSuite(t *testing.T) {
	reports, err := ChurnSuite(11, 150, core.SolverOptions{}, []string{"uniform", "heavytail"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want 2", len(reports))
	}
	for _, rep := range reports {
		if rep.Sessions == 0 {
			t.Fatalf("%s: empty trace", rep.Config.Scenario)
		}
		if !strings.Contains(rep.String(), rep.Config.Scenario) {
			t.Fatalf("report render missing scenario: %s", rep.String())
		}
	}
	if _, err := ChurnSuite(11, 150, core.SolverOptions{}, []string{"bogus"}); err == nil {
		t.Fatal("bogus scenario accepted")
	}
	if _, err := ChurnRun(1, ChurnConfig{Nodes: 2}); err == nil {
		t.Fatal("tiny topology accepted")
	}
}

// TestChurnRunPlaneToggleBitIdentical replays the same trace with the
// prefabrication plane on and off, across worker counts: the shared SSSP
// rows must hand every session exactly the route tables it would have built
// itself, so the sequential replay's outputs are bit-identical. With the
// plane on, the report must show the dedup actually happened (PlaneSources
// strictly below PlaneRequests on a Zipf-hot scenario).
func TestChurnRunPlaneToggleBitIdentical(t *testing.T) {
	var base *ChurnReport
	for _, plane := range []overlay.PlaneMode{overlay.PlaneSubtree, overlay.PlaneOff} {
		disable := plane == overlay.PlaneOff
		for _, workers := range []int{1, 4} {
			rep, err := ChurnRun(43, ChurnConfig{Nodes: 200, Scenario: "livestream", SolverOptions: core.SolverOptions{Workers: workers, Plane: plane}})
			if err != nil {
				t.Fatal(err)
			}
			if disable {
				if rep.Plane.PlaneRounds != 0 {
					t.Fatalf("plane disabled but counters %+v", rep.Plane)
				}
			} else if rep.Plane.PlaneSources == 0 || rep.Plane.PlaneSources >= rep.Plane.PlaneRequests {
				t.Fatalf("prefab plane did not dedup: %+v", rep.Plane)
			}
			if base == nil {
				base = rep
				continue
			}
			if rep.PeakCongestion != base.PeakCongestion || rep.Throughput != base.Throughput ||
				rep.MinRate != base.MinRate || rep.FinalActive != base.FinalActive || rep.MSTOps != base.MSTOps {
				t.Fatalf("plane toggle changed replay outputs (disable=%v workers=%d):\n%+v\nvs\n%+v", disable, workers, base, rep)
			}
		}
	}
}
