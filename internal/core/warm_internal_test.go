package core

import (
	"fmt"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// TestWarmFaultBeforeLeaveFallsBackColdFirst pins the fallback *ordering*: an
// underlay fault (here a recovery — capacity up) arriving
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
		w, err := NewWarm(g, WarmOptions{Epsilon: 0.1})
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
	w := newWarm(members)
	defer w.Close()
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Underlay recovery on edge 3: capacity doubles. Warm.Fault's contract is
	// that the caller already rewrote the capacity.
	g.Edges[3].Capacity *= 2
	defer func() { g.Edges[3].Capacity /= 2 }()
	if err := w.Fault(3); err != nil {
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
	if got, want := testFingerprint(sol), testFingerprint(refSol); got != want {
		t.Fatalf("post-fault snapshot is not bit-identical to cold:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWarmColdAnchorReusesBetas drives an always-cold Warm through a seeded
// join/leave stream with one Fault and checks, after every refresh, that
// the anchor is bitwise the logged anchor solve over the same dense
// sessions, and that it spent exactly k oracle calls on its demand scale,
// before and after the Fault: an anchor carries nothing across re-anchors,
// so no churn or capacity change can make its scale cost more or less.
func TestWarmColdAnchorReusesBetas(t *testing.T) {
	const eps = 0.2
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				net, err := topology.Waxman(topology.DefaultWaxman(25), rng.New(41))
				if err != nil {
					t.Fatal(err)
				}
				g := net.Graph
				opts := SolverOptions{Workers: workers}
				w, err := NewWarm(g, WarmOptions{Epsilon: eps, SolverOptions: opts, RepairPhaseBudget: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				r := rng.New(uint64(97 + workers))
				join := func() {
					members := r.Sample(g.NumNodes(), 2+r.Intn(3))
					s, err := overlay.NewSession(w.NumSlots(), members, float64(1+r.Intn(3)))
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Join(s, testOracle(t, g, s, mode)); err != nil {
						t.Fatal(err)
					}
				}
				leaveRandom := func() {
					var live []int
					for slot := 0; slot < w.NumSlots(); slot++ {
						if w.Active(slot) {
							live = append(live, slot)
						}
					}
					if err := w.Leave(live[r.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
				}
				check := func(step string) {
					t.Helper()
					before := w.Stats().MSTOps
					var dense []*overlay.Session
					for slot, s := range w.sessions {
						if w.active[slot] {
							dense = append(dense, &overlay.Session{ID: len(dense), Members: s.Members, Demand: s.Demand})
						}
					}
					sol, err := w.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					p, err := NewProblem(g, dense, mode)
					if err != nil {
						t.Fatal(err)
					}
					ref, _, err := denseAnchor(p, MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: opts})
					if err != nil {
						t.Fatal(err)
					}
					if ref.PrestepMSTOps != len(dense) {
						t.Fatalf("%s: scale round spent %d oracle calls, want k = %d", step, ref.PrestepMSTOps, len(dense))
					}
					if got := w.Stats().MSTOps - before; got != ref.MSTOps+len(dense) {
						t.Fatalf("%s: anchor spent %d MSTOps, want %d (phase loop %d plus k = %d on the scale)",
							step, got, ref.MSTOps+len(dense), ref.MSTOps, len(dense))
					}
					if got := w.Stats().AnchorCertified; got != ref.Certified {
						t.Fatalf("%s: anchor certified %.17g, logged solve %.17g", step, got, ref.Certified)
					}
					if got, want := testFingerprint(sol), testFingerprint(ref.Solution); got != want {
						t.Fatalf("%s: anchor rates or trees differ from a fresh logged solve", step)
					}
				}

				for i := 0; i < 3; i++ {
					join()
				}
				check("first anchor")
				for step := 0; step < 8; step++ {
					switch {
					case step == 4:
						// Halve the capacity of an edge the allocation uses;
						// Warm.Fault expects the caller to have rewritten it.
						e := usedEdge(t, w)
						g.Edges[e].Capacity /= 2
						if err := w.Fault(e); err != nil {
							t.Fatal(err)
						}
						join()
						check(fmt.Sprintf("step %d (fault)", step))
						continue
					case w.ActiveSessions() > 2 && r.Intn(3) == 0:
						leaveRandom()
					case r.Intn(4) == 0:
						// A session that joins and leaves between anchors
						// never reaches the anchor.
						join()
						if err := w.Leave(w.NumSlots() - 1); err != nil {
							t.Fatal(err)
						}
						join()
					default:
						join()
					}
					if r.Intn(2) == 0 && w.ActiveSessions() > 2 {
						leaveRandom()
					}
					check(fmt.Sprintf("step %d", step))
				}
			})
		}
	}
}

// usedEdge returns an edge the allocation routes flow over: the first edge
// of the lowest active slot's first tree.
func usedEdge(t *testing.T, w *Warm) graph.EdgeID {
	t.Helper()
	for slot, fs := range w.gk.raw {
		if !w.active[slot] {
			continue
		}
		for _, tf := range fs {
			for _, route := range tf.Tree.Routes {
				if len(route.Edges) > 0 {
					return route.Edges[0]
				}
			}
		}
	}
	t.Fatal("allocation routes no edge")
	return 0
}

// testOracle builds a per-session oracle matching mode, the way a caller of
// Warm.Join would.
func testOracle(t *testing.T, g *graph.Graph, s *overlay.Session, mode RoutingMode) overlay.TreeOracle {
	t.Helper()
	var o overlay.TreeOracle
	var err error
	if mode == RoutingArbitrary {
		o, err = overlay.NewArbitraryOracle(g, s)
	} else {
		o, err = overlay.NewFixedOracle(g, routing.NewIPRoutes(g, s.Members), s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testFingerprint renders every session's tree keys and rates bitwise.
func testFingerprint(sol *Solution) string {
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
