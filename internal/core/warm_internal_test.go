package core

import (
	"fmt"
	"testing"

	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// An external (non-self-inflicted) shrink of the ledger invalidates the bump
// attribution; the next refresh must re-anchor cold rather than trust the
// warm state. Internal test: it reaches into the unexported ledger to
// simulate the drift.
func TestWarmExternalShrinkForcesColdResolve(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(25), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	w, err := NewWarm(g, RoutingArbitrary, nil, WarmOptions{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, members := range [][]int{{0, 5, 9}, {2, 11, 17}, {4, 20, 23}} {
		s, err := overlay.NewSession(i, members, 1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := overlay.NewArbitraryOracle(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Join(s, o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if w.stats.ColdSolves != 1 {
		t.Fatalf("cold solves %d, want 1", w.stats.ColdSolves)
	}

	// Simulate external drift: shrink an edge behind the allocator's back,
	// then dirty the allocation so the next snapshot must refresh.
	w.gk.d.Set(0, w.base[0])
	if err := w.Leave(2); err != nil {
		t.Fatal(err)
	}
	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.ColdSolves != 2 || st.WarmRefreshes != 0 {
		t.Fatalf("stats %+v, want external shrink to force a cold re-anchor", st)
	}
	if err := sol.CheckFeasible(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestWarmFaultBeforeLeaveFallsBackColdFirst pins the fallback *ordering*: an
// underlay fault (here a recovery — capacity up, length shrink) arriving
// between the anchor and the next refresh must latch the cold fallback BEFORE
// any rollback replay runs. A Leave after the fault must not touch the ledger
// at all (the recorded bump attribution refers to the old capacities), and
// the following snapshot must be bit-identical to a from-scratch cold solve
// over the surviving sessions on the faulted graph.
func TestWarmFaultBeforeLeaveFallsBackColdFirst(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(25), rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	members := [][]int{{0, 5, 9}, {2, 11, 17}, {4, 20, 23}}
	newWarm := func(sets [][]int) *Warm {
		t.Helper()
		w, err := NewWarm(g, RoutingArbitrary, nil, WarmOptions{Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range sets {
			s, err := overlay.NewSession(i, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			o, err := overlay.NewArbitraryOracle(g, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Join(s, o); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	fingerprint := func(sol *Solution) string {
		out := ""
		for i := range sol.Sessions {
			out += fmt.Sprintf("s%d:", i)
			for _, tf := range sol.Flows[i] {
				out += fmt.Sprintf(" %x@%.17g", tf.Tree.KeyHash(), tf.Rate)
			}
			out += "\n"
		}
		return out
	}

	w := newWarm(members)
	defer w.Close()
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Underlay recovery on edge 3: capacity doubles, so the mirrored length
	// move is a shrink (factor 1/2). Warm.Fault's contract is that the caller
	// already rewrote the capacity.
	g.Edges[3].Capacity *= 2
	defer func() { g.Edges[3].Capacity /= 2 }()
	if err := w.Fault(3, 0.5); err != nil {
		t.Fatal(err)
	}
	if !w.forceCold {
		t.Fatal("fault must latch the cold fallback")
	}
	epochAfterFault := w.gk.d.Epoch()

	// The Leave must take the cold latch branch and never replay the
	// rollback: zero ledger mutations.
	if err := w.Leave(1); err != nil {
		t.Fatal(err)
	}
	if got := w.gk.d.Epoch(); got != epochAfterFault {
		t.Fatalf("Leave after a fault mutated the ledger (%d -> %d): rollback ran before the cold fallback", epochAfterFault, got)
	}

	sol, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.ColdSolves != 2 || st.WarmRefreshes != 0 || st.UnderlayEvents != 1 {
		t.Fatalf("stats %+v: fault must force a cold re-anchor (2 colds, 0 warm, 1 underlay event)", st)
	}

	// Bit-identity against a cold solve over the survivors on the faulted
	// graph.
	ref := newWarm([][]int{members[0], members[2]})
	defer ref.Close()
	refSol, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(sol), fingerprint(refSol); got != want {
		t.Fatalf("post-fault snapshot is not bit-identical to cold:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
