package experiments

import (
	"strings"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/workload"
)

// TestScaleInstanceLegacyGolden pins the legacy (scenario-less) construction
// to fixed-seed golden values: scenario support must not perturb the RNG
// consumption of existing scale instances, which the detdump determinism
// gate and the BENCH trajectory both assume.
func TestScaleInstanceLegacyGolden(t *testing.T) {
	si, err := NewScaleInstance(5, ScaleConfig{Nodes: 300, Sessions: 8, SessionSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := si.Net.Graph.NumEdges(); got != 597 {
		t.Errorf("legacy instance edges = %d, want 597", got)
	}
	want := []int{96, 241, 256, 269, 179}
	for i, m := range si.Sessions[0].Members {
		if m != want[i] {
			t.Fatalf("legacy session 0 members = %v, want %v", si.Sessions[0].Members, want)
		}
	}
	if si.Net.Name != "waxman(n=300,m=2)" {
		t.Errorf("legacy instance topology %q, want naive waxman", si.Net.Name)
	}
}

func TestScaleInstanceScenarios(t *testing.T) {
	for _, name := range workload.Names() {
		cfg := ScaleConfig{Nodes: 300, Sessions: 8, Scenario: name}
		si, err := NewScaleInstance(5, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(si.Net.Name, "waxman-grid(") {
			t.Errorf("%s: topology %q, want grid waxman", name, si.Net.Name)
		}
		if len(si.Sessions) != 8 {
			t.Fatalf("%s: %d sessions", name, len(si.Sessions))
		}
		if got, want := cfg.Name(), name+"_n300_k8_ip"; got != want {
			t.Errorf("config name %q, want %q", got, want)
		}
		// Rebuilding with the same seed must reproduce the instance exactly.
		again, err := NewScaleInstance(5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := si.Net.Graph.NumEdges(), again.Net.Graph.NumEdges(); a != b {
			t.Fatalf("%s: nondeterministic edge count %d vs %d", name, a, b)
		}
		for e := range si.Net.Graph.Edges {
			if si.Net.Graph.Edges[e] != again.Net.Graph.Edges[e] {
				t.Fatalf("%s: edge %d differs across rebuilds", name, e)
			}
		}
		for i := range si.Sessions {
			if si.Sessions[i].Demand != again.Sessions[i].Demand {
				t.Fatalf("%s: session %d demand differs across rebuilds", name, i)
			}
			for j, m := range si.Sessions[i].Members {
				if again.Sessions[i].Members[j] != m {
					t.Fatalf("%s: session %d member %d differs across rebuilds", name, i, j)
				}
			}
		}
	}
	// Heterogeneous scenarios must actually vary capacities.
	si, err := NewScaleInstance(5, ScaleConfig{Nodes: 300, Sessions: 8, Scenario: "heavytail"})
	if err != nil {
		t.Fatal(err)
	}
	min, max := si.Net.Graph.Edges[0].Capacity, si.Net.Graph.Edges[0].Capacity
	for _, e := range si.Net.Graph.Edges {
		if e.Capacity < min {
			min = e.Capacity
		}
		if e.Capacity > max {
			max = e.Capacity
		}
	}
	if max <= min*1.5 {
		t.Errorf("heavytail capacities not heterogeneous: min %v max %v", min, max)
	}
	if _, err := NewScaleInstance(5, ScaleConfig{Nodes: 300, Sessions: 8, Scenario: "nope"}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

func TestScenarioSuites(t *testing.T) {
	all, err := ScenarioScaleSuite(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(workload.Names()); len(all) != want {
		t.Fatalf("full scenario suite has %d configs, want %d", len(all), want)
	}
	some, err := ScenarioScaleSuite([]string{"cdn"})
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 3 || some[0].Scenario != "cdn" {
		t.Fatalf("cdn suite = %+v", some)
	}
	if _, err := ScenarioScaleSuite([]string{"bogus"}); err == nil {
		t.Fatal("bogus scenario did not error")
	}
	small, err := SmallScenarioSuite([]string{"uniform", "heavytail"})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 2 || small[1].Scenario != "heavytail" || small[1].Nodes != 300 {
		t.Fatalf("small suite = %+v", small)
	}
	if _, err := SmallScenarioSuite([]string{"bogus"}); err == nil {
		t.Fatal("bogus small scenario did not error")
	}
}

// TestScaleSuiteScenarioRows solves one tiny scenario end to end through
// ScaleSuite, checking that rows carry the scenario label and a positive
// objective for both solvers.
func TestScaleSuiteScenarioRows(t *testing.T) {
	rows, err := ScaleSuite(7, 0.5, []ScaleConfig{
		{Nodes: 120, Sessions: 4, Scenario: "conferencing"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if !strings.HasPrefix(row.Config.Name(), "conferencing_") {
			t.Errorf("row name %q missing scenario prefix", row.Config.Name())
		}
		if row.Throughput <= 0 {
			t.Errorf("row %s: throughput %v", row.Config.Name(), row.Throughput)
		}
	}
	if rows[1].Solver != "mcf" || rows[1].Lambda <= 0 {
		t.Errorf("mcf row: %+v", rows[1])
	}
}

// TestPlaneDedupZipfHotScenarios pins the whole point of the shared SSSP
// plane: on Zipf-hot scenarios (cdn, livestream) at 64+ arbitrary-routing
// sessions, one batch round must serve at least twice as many per-member
// SSSP reads as it computes Dijkstra rows (>= 2x source dedup), and the
// dedup factor must not shrink as the session count grows — more sessions
// over the same hot nodes can only increase sharing.
func TestPlaneDedupZipfHotScenarios(t *testing.T) {
	dedupAt := func(scenario string, sessions int) float64 {
		t.Helper()
		si, err := NewScaleInstance(4242, ScaleConfig{
			Nodes: 256, Sessions: sessions, Scenario: scenario, Arbitrary: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := overlay.NewBatchRunnerOpts(si.Problem.G, si.Problem.Oracles, overlay.BatchOptions{Workers: 1})
		defer r.Close()
		d := graph.NewLengthStore(si.Problem.G, 1)
		for _, res := range r.MinTrees(d, nil) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		m := r.Metrics()
		if m.Rounds != 1 || m.Sources == 0 {
			t.Fatalf("%s k=%d: implausible plane metrics %+v", scenario, sessions, m)
		}
		return m.Dedup()
	}
	for _, scenario := range []string{"cdn", "livestream"} {
		small := dedupAt(scenario, 16)
		large := dedupAt(scenario, 64)
		if large < 2 {
			t.Errorf("%s at 64 sessions: dedup %.2fx, want >= 2x", scenario, large)
		}
		if large < small {
			t.Errorf("%s: dedup fell from %.2fx (16 sessions) to %.2fx (64)", scenario, small, large)
		}
		t.Logf("%s: dedup %.2fx at 16 sessions, %.2fx at 64", scenario, small, large)
	}
}
