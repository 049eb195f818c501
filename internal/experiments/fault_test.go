package experiments

import (
	"fmt"
	"testing"

	"overcast/internal/overlay"
)

// TestFaultSolveBitIdenticalAcrossToggles is the tentpole acceptance gate at
// the runner layer: one fault scenario (link-down, recovery shrink, drift,
// and a journal-flooding fault storm) replayed across workers x plane modes
// must produce bit-identical output fingerprints, while the robustness
// counters prove the degradation paths actually ran — non-monotone plane
// refills whenever the plane is on, subtree repairs only under PlaneSubtree.
func TestFaultSolveBitIdenticalAcrossToggles(t *testing.T) {
	base := FaultSolveConfig{
		Nodes: 48, Sessions: 4, SessionSize: 4, TwoLevelASes: 4,
		Rounds: 8, FailRound: 2, RecoverRound: 4, DriftRound: 5,
		FaultStorm: true,
	}
	want := ""
	wantEvents := 0
	for _, w := range []int{1, 2, 8} {
		for _, plane := range []overlay.PlaneMode{overlay.PlaneSubtree, overlay.PlaneFull, overlay.PlaneOff} {
			cfg := base
			cfg.Workers, cfg.Plane = w, plane
			label := fmt.Sprintf("w%d_plane-%v", w, plane)
			rep, err := FaultSolveRun(11, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want == "" {
				want, wantEvents = rep.Fingerprint, rep.UnderlayEvents
			}
			if rep.Fingerprint != want {
				t.Fatalf("%s: fingerprint %s, want %s — fault replay is mode-dependent", label, rep.Fingerprint, want)
			}
			if rep.UnderlayEvents != wantEvents {
				t.Fatalf("%s: %d underlay events, want %d", label, rep.UnderlayEvents, wantEvents)
			}
			m := rep.Plane
			switch plane {
			case overlay.PlaneOff:
				if m != (overlay.PlaneStats{}) {
					t.Fatalf("%s: plane off but counters %+v", label, m)
				}
				continue
			case overlay.PlaneSubtree:
				if m.Skipped == 0 || m.SubtreeRepaired == 0 {
					t.Fatalf("%s: subtree mode never skipped or never repaired a subtree (%+v)", label, m)
				}
			case overlay.PlaneFull:
				if m.SubtreeRepaired != 0 {
					t.Fatalf("%s: full-refill mode took the subtree path (%+v)", label, m)
				}
			}
			// Non-vacuity: the recovery and drift shrinks must degrade plane
			// rows on every run with the plane on.
			if m.NonMonotoneRefills == 0 {
				t.Fatalf("%s: zero non-monotone plane refills — the shrink path never ran", label)
			}
		}
	}
	if wantEvents != 3 {
		t.Fatalf("scenario applied %d underlay events, want 3 (down, up, drift)", wantEvents)
	}
}

// TestFaultSolveDeterministicReplay: same seed and config, same fingerprint;
// different seed, different fingerprint (the scenario actually depends on the
// instance).
func TestFaultSolveDeterministicReplay(t *testing.T) {
	cfg := FaultSolveConfig{Nodes: 32, Sessions: 3, Rounds: 6}
	a, err := FaultSolveRun(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSolveRun(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("replay fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	c, err := FaultSolveRun(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced the same fingerprint")
	}
}

// TestFaultChurnDampingBoundsRepairWork is the damping satellite's acceptance
// gate: under an oscillating flap trace, the damped replay must suppress
// recoveries and deliver strictly fewer fault events to the allocator than
// the undamped replay — bounding the fault-forced cold re-solve work — while
// both replays survive the full trace and end with a verified allocation.
func TestFaultChurnDampingBoundsRepairWork(t *testing.T) {
	cfg := FaultChurnConfig{
		Nodes: 32, ArrivalRate: 1.5, MeanLifetime: 5, Horizon: 10,
		SnapshotEvery: 4,
		// A hard-oscillating regime: 4 links flapping ~3x per time unit.
		FaultEdges: 4, FailRate: 3, MeanRepair: 0.2,
	}
	undamped, damped, err := FaultChurnPair(21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if undamped.TraceFaults != damped.TraceFaults || undamped.TraceFaults == 0 {
		t.Fatalf("trace sizes differ: %d vs %d", undamped.TraceFaults, damped.TraceFaults)
	}
	if undamped.UnderlayEvents == 0 {
		t.Fatal("undamped replay applied no effective fault events — the scenario is vacuous")
	}
	if damped.Suppressed == 0 {
		t.Fatal("damper suppressed nothing under a hard oscillation")
	}
	if damped.AppliedFaults >= undamped.AppliedFaults {
		t.Fatalf("damping did not reduce delivered events: %d vs %d", damped.AppliedFaults, undamped.AppliedFaults)
	}
	if damped.UnderlayEvents >= undamped.UnderlayEvents {
		t.Fatalf("damping did not reduce effective events: %d vs %d", damped.UnderlayEvents, undamped.UnderlayEvents)
	}
	if damped.ColdSolves > undamped.ColdSolves {
		t.Fatalf("damping increased cold solves: %d vs %d", damped.ColdSolves, undamped.ColdSolves)
	}
	for _, rep := range []*FaultChurnReport{undamped, damped} {
		if rep.Snapshots == 0 || rep.Throughput <= 0 {
			t.Fatalf("replay produced no usable allocation: %+v", rep)
		}
	}
}
