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
	if got, want := testFingerprint(sol), testFingerprint(refSol); got != want {
		t.Fatalf("post-fault snapshot is not bit-identical to cold:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWarmColdAnchorReusesBetas drives an always-cold Warm through a seeded
// join/leave stream and checks, after every refresh, that the anchor that
// reused the memoized betas of surviving sessions is bitwise the fresh
// MaxConcurrentFlow over the same dense sessions, and that its prestep ran
// MaxFlow only for the slots whose beta was unknown: joined since the
// previous anchor, stopped by that anchor's bounded prestep, or forgotten
// by a Fault. An anchor that knows no beta (the first, and the one after
// the Fault) runs the bounded prestep, so each memoized beta is exact or
// certified (0, with the fresh beta/d above the first wave's minimum); any
// other anchor memoizes exact betas.
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
				w, err := NewWarm(g, mode, nil, WarmOptions{Epsilon: eps, SolverOptions: opts, RepairPhaseBudget: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				r := rng.New(uint64(97 + workers))
				joined := map[int]bool{}  // slots joined since the previous anchor
				stopped := map[int]bool{} // slots the previous anchor's prestep stopped
				join := func() {
					members := r.Sample(g.NumNodes(), 2+r.Intn(3))
					s, err := overlay.NewSession(w.NumSlots(), members, float64(1+r.Intn(3)))
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Join(s, testOracle(t, g, s, mode)); err != nil {
						t.Fatal(err)
					}
					joined[s.ID] = true
				}
				leave := func(slot int) {
					if err := w.Leave(slot); err != nil {
						t.Fatal(err)
					}
					delete(joined, slot)
					delete(stopped, slot)
				}
				leaveRandom := func() {
					var live []int
					for slot := 0; slot < w.NumSlots(); slot++ {
						if w.Active(slot) {
							live = append(live, slot)
						}
					}
					leave(live[r.Intn(len(live))])
				}
				check := func(step string, faulted bool) {
					t.Helper()
					before, stoppedBefore := w.Stats().MSTOps, w.Stats().PrestepStopped
					var dense []*overlay.Session
					var denseToSlot []int
					anyKnown := false
					for slot, s := range w.sessions {
						if w.active[slot] {
							dense = append(dense, &overlay.Session{ID: len(dense), Members: s.Members, Demand: s.Demand})
							denseToSlot = append(denseToSlot, slot)
							if unknown := w.betas[slot] == 0; unknown != (faulted || joined[slot] || stopped[slot]) {
								t.Fatalf("%s: slot %d memo unknown=%v, joined=%v stopped=%v faulted=%v", step, slot, unknown, joined[slot], stopped[slot], faulted)
							}
							anyKnown = anyKnown || w.betas[slot] > 0
						}
					}
					known := make([]float64, len(denseToSlot))
					for i, slot := range denseToSlot {
						known[i] = w.betas[slot]
					}
					sol, err := w.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					p, err := NewProblem(g, dense, mode)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := MaxConcurrentFlow(p, MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: opts})
					if err != nil {
						t.Fatal(err)
					}
					memo := make([]float64, len(denseToSlot))
					for i, slot := range denseToSlot {
						memo[i] = w.betas[slot]
					}
					wantOps, wantStopped := ref.MSTOps, 0
					clear(stopped)
					if bounded := !anyKnown && len(dense) > prestepFirstWave; bounded {
						bp := replayBoundedPrestep(t, p, eps, ref.Betas)
						bp.check(t, step, p, memo, ref.Betas)
						wantOps += bp.ops
						for i, s := range bp.stopped {
							if s {
								stopped[denseToSlot[i]] = true
								wantStopped++
							}
						}
					} else {
						for i, slot := range denseToSlot {
							if w.betas[slot] != ref.Betas[i] {
								t.Fatalf("%s: slot %d memoized beta %.17g, fresh %.17g", step, slot, w.betas[slot], ref.Betas[i])
							}
							if known[i] == 0 {
								wantOps += soloMaxFlowOps(t, p, i, eps)
							}
						}
					}
					if faulted && anyKnown {
						t.Fatalf("%s: a Fault left memoized betas behind", step)
					}
					if got := w.Stats().MSTOps - before; got != wantOps {
						t.Fatalf("%s: anchor spent %d MSTOps, want %d (phase loop %d plus the prestep of the unknown betas, faulted=%v)",
							step, got, wantOps, ref.MSTOps, faulted)
					}
					if got := w.Stats().PrestepStopped - stoppedBefore; got != wantStopped {
						t.Fatalf("%s: PrestepStopped grew by %d, want %d", step, got, wantStopped)
					}
					if got, want := testFingerprint(sol), testFingerprint(ref.Solution); got != want {
						t.Fatalf("%s: anchor rates or trees differ from a fresh solve", step)
					}
					clear(joined)
				}

				for i := 0; i < 3; i++ {
					join()
				}
				check("first anchor", false)
				for step := 0; step < 8; step++ {
					switch {
					case step == 4:
						// Halve the capacity of an edge the allocation uses;
						// Warm.Fault expects the caller to have rewritten it.
						e := usedEdge(t, w)
						g.Edges[e].Capacity /= 2
						if err := w.Fault(e, 2); err != nil {
							t.Fatal(err)
						}
						join()
						check(fmt.Sprintf("step %d (fault)", step), true)
						continue
					case w.ActiveSessions() > 2 && r.Intn(3) == 0:
						leaveRandom()
					case r.Intn(4) == 0:
						// A session that joins and leaves between anchors
						// never reaches the prestep.
						join()
						leave(w.NumSlots() - 1)
						join()
					default:
						join()
					}
					if r.Intn(2) == 0 && w.ActiveSessions() > 2 {
						leaveRandom()
					}
					check(fmt.Sprintf("step %d", step), false)
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

// soloMaxFlowOps returns the MSTOps of the prestep MaxFlow of session i of p.
func soloMaxFlowOps(t *testing.T, p *Problem, i int, eps float64) int {
	t.Helper()
	mf, err := MaxFlow(singleSessionProblem(p, i), MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return mf.MSTOps
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
