package core

import (
	"fmt"
	"math"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/underlay"
)

// TestPrestepPartialKnowledge pins the known-beta path of the prestep: a
// solve that is handed some sessions' betas returns bitwise the Lambda and
// flows of a solve that computes them all, and spends prestep MSTOps
// exactly on the solo MaxFlows of the sessions it was not handed. A handed
// beta is returned as is. When none is handed the prestep is bounded, so
// each beta is exact or certified: 0 for a MaxFlow stopped once its beta/d
// provably exceeded the first wave's minimum, whose MSTOps count up to the
// stop.
func TestPrestepPartialKnowledge(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	sets := [][]graph.NodeID{{0, 10, 20}, {5, 25}, {0, 10, 25}, {5, 20}, {10, 20, 25}}
	const eps = 0.1
	problem := func(mode RoutingMode) *Problem {
		sessions := make([]*overlay.Session, len(sets))
		for i, m := range sets {
			s, err := overlay.NewSession(i, m, float64(1+i%2))
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		p, err := NewProblem(g, sessions, mode)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for _, workers := range []int{1, 3} {
			opts := MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: workers}}
			full, _, err := maxConcurrentFlow(problem(mode), opts, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, knownSet := range [][]int{{}, {0, 2, 3}, {4}, {0, 1, 2, 3, 4}} {
				name := fmt.Sprintf("%v/w%d/known%v", mode, workers, knownSet)
				known := make([]float64, len(sets))
				for _, i := range knownSet {
					known[i] = full.Betas[i]
				}
				p := problem(mode)
				res, _, err := maxConcurrentFlow(p, opts, false, known)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Lambda != full.Lambda {
					t.Fatalf("%s: lambda %.17g, want %.17g", name, res.Lambda, full.Lambda)
				}
				if got, want := testFingerprint(res.Solution), testFingerprint(full.Solution); got != want {
					t.Fatalf("%s: flows differ from the all-unknown solve", name)
				}
				var wantOps int
				if len(knownSet) == 0 {
					bp := replayBoundedPrestep(t, p, eps, full.Betas)
					bp.check(t, name, p, res.Betas, full.Betas)
					wantOps = bp.ops
				} else {
					for i := range sets {
						if res.Betas[i] != full.Betas[i] {
							t.Fatalf("%s: beta[%d] = %.17g, want %.17g", name, i, res.Betas[i], full.Betas[i])
						}
						if known[i] == 0 {
							wantOps += soloMaxFlowOps(t, p, i, eps)
						}
					}
				}
				if res.PrestepMSTOps != wantOps {
					t.Fatalf("%s: prestep MSTOps %d, want %d (solo MaxFlows of the unknown sessions)", name, res.PrestepMSTOps, wantOps)
				}
			}
		}
	}
}

// boundedPrestep is the outcome the bounded prestep must reach on a problem,
// replayed from the unbounded betas.
type boundedPrestep struct {
	tau     float64 // the first wave's minimum beta/d
	ops     int     // prestep MSTOps, stopped runs counted up to their stop
	stopped []bool
}

// replayBoundedPrestep replays the bounded prestep of p from full, the
// betas of the unbounded prestep: the first wave of the beta upper-bound
// order runs solo MaxFlows to completion, and every other session runs
// maxFlow under stopAbove = tau·d_i.
func replayBoundedPrestep(t testing.TB, p *Problem, eps float64, full []float64) boundedPrestep {
	t.Helper()
	order := betaUpperBoundOrder(p)
	bp := boundedPrestep{tau: math.Inf(1), stopped: make([]bool, p.K())}
	for _, i := range order[:prestepFirstWave] {
		bp.tau = min(bp.tau, full[i]/p.Sessions[i].Demand)
	}
	for j, i := range order {
		stopAbove := math.Inf(1)
		if j >= prestepFirstWave {
			stopAbove = bp.tau * p.Sessions[i].Demand
		}
		mf, stopped, err := maxFlow(singleSessionProblem(p, i), MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}}, stopAbove)
		if err != nil {
			t.Fatal(err)
		}
		bp.ops += mf.MSTOps
		bp.stopped[i] = stopped
	}
	return bp
}

// check verifies betas from a bounded prestep against full, the unbounded
// ones: a run that was not stopped is exact, and a stopped one reports 0
// while its full beta/d is above tau, so it cannot set zeta.
func (bp boundedPrestep) check(t testing.TB, name string, p *Problem, betas, full []float64) {
	t.Helper()
	for i, s := range p.Sessions {
		switch {
		case !bp.stopped[i] && betas[i] != full[i]:
			t.Fatalf("%s: beta[%d] = %.17g, want %.17g", name, i, betas[i], full[i])
		case bp.stopped[i] && betas[i] != 0:
			t.Fatalf("%s: stopped beta[%d] = %.17g, want 0", name, i, betas[i])
		case bp.stopped[i] && !(full[i]/s.Demand > bp.tau):
			t.Fatalf("%s: stopped session %d has beta/d %.17g, not above tau %.17g", name, i, full[i]/s.Demand, bp.tau)
		}
	}
}

// downedWaxman returns an n-node Waxman graph on which each link is down
// (capacity scaled by underlay.DefaultDownFactor) with probability down.
func downedWaxman(t testing.TB, n int, seed uint64, down float64) *graph.Graph {
	t.Helper()
	net, err := topology.Waxman(topology.DefaultWaxman(n), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 1)
	for e := range net.Graph.Edges {
		if r.Float64() < down {
			net.Graph.Edges[e].Capacity *= underlay.DefaultDownFactor
		}
	}
	return net.Graph
}

// randomProblem draws k sessions of 2–5 members (at most every node) with
// demands in {1,...,4} over g.
func randomProblem(t testing.TB, g *graph.Graph, mode RoutingMode, k int, seed uint64) *Problem {
	t.Helper()
	r := rng.New(seed)
	sessions := make([]*overlay.Session, k)
	for i := range sessions {
		s, err := overlay.NewSession(i, r.Sample(g.NumNodes(), 2+r.Intn(min(4, g.NumNodes()-1))), float64(1+r.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	p, err := NewProblem(g, sessions, mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lemma2Rounding is the relative float slack checkLemma2 grants the Lemma 2
// bound. In exact arithmetic the raw congestion is below L; in floats a run
// whose lengths reach exactly 1 can take one more step and end a few ulps
// above it (a 2-member, 1-hop session at eps 0.1 ends at L(1+4e-16)). The
// early stop's stopMargin is three orders of magnitude wider.
const lemma2Rounding = 1e-9

// checkLemma2 runs every session of p solo and checks the Lemma 2 bound the
// prestep's early stop rests on: the raw congestion stays below L (up to
// lemma2Rounding), so the rescaled beta is at least the raw flow routed over
// L.
func checkLemma2(t testing.TB, name string, p *Problem, eps float64) {
	t.Helper()
	for i := range p.Sessions {
		sub := singleSessionProblem(p, i)
		raw, stopped, err := maxFlow(sub, MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}}, math.Inf(1))
		if err != nil {
			t.Fatalf("%s: session %d: %v", name, i, err)
		}
		if stopped {
			t.Fatalf("%s: session %d: unbounded maxFlow reported a stop", name, i)
		}
		routed, cong := raw.SessionRate(0), raw.MaxCongestion()
		bound := lemma2Bound(eps, maxFlowDelta(sub, eps)) * (1 + lemma2Rounding)
		if !(cong < bound) {
			t.Fatalf("%s: session %d: raw congestion %.17g not below L = %.17g", name, i, cong, bound)
		}
		mf, err := MaxFlow(sub, MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if beta := mf.SessionRate(0); beta < routed/bound {
			t.Fatalf("%s: session %d: beta %.17g below raw/L = %.17g", name, i, beta, routed/bound)
		}
	}
}

// TestMaxFlowLemma2Congestion pins the certificate behind the bounded
// prestep: a solo MaxFlow ends with raw congestion below L =
// log_{1+eps}((1+eps)/delta) up to float rounding, in both routing modes,
// across epsilon, with and without 30% of the links down.
func TestMaxFlowLemma2Congestion(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for _, down := range []float64{0, 0.3} {
			g := downedWaxman(t, 25, 61, down)
			p := randomProblem(t, g, mode, 4, 62)
			for _, eps := range []float64{0.05, 0.1, 0.3, 0.5} {
				checkLemma2(t, fmt.Sprintf("%v/down%v/eps%v", mode, down, eps), p, eps)
			}
		}
	}
}

// checkStopAtOwnBeta runs every session of p solo, unbounded and then
// bounded at its own rescaled beta F_T/C_T. The early stop must prove the
// final beta strictly above stopAbove, so the bounded run must never stop,
// and it must route bitwise the unbounded run's raw flows with the same
// MSTOps: the soundness edge of the stop's duality certificate.
func checkStopAtOwnBeta(t testing.TB, name string, p *Problem, eps float64) {
	t.Helper()
	opts := MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}}
	for i := range p.Sessions {
		sub := singleSessionProblem(p, i)
		full, _, err := maxFlow(sub, opts, math.Inf(1))
		if err != nil {
			t.Fatalf("%s: session %d: %v", name, i, err)
		}
		beta := full.SessionRate(0) / full.MaxCongestion()
		bounded, stopped, err := maxFlow(sub, opts, beta)
		if err != nil {
			t.Fatalf("%s: session %d: %v", name, i, err)
		}
		if stopped {
			t.Fatalf("%s: session %d: maxFlow bounded at its own beta %.17g stopped after %d of %d MSTOps",
				name, i, beta, bounded.MSTOps, full.MSTOps)
		}
		if bounded.MSTOps != full.MSTOps {
			t.Fatalf("%s: session %d: bounded MSTOps %d, unbounded %d", name, i, bounded.MSTOps, full.MSTOps)
		}
		if got, want := testFingerprint(bounded), testFingerprint(full); got != want {
			t.Fatalf("%s: session %d: bounded raw flows differ from the unbounded run's", name, i)
		}
	}
}

// TestMaxFlowStopAtOwnBeta pins the soundness edge of the early stop (see
// checkStopAtOwnBeta) in both routing modes, across epsilon, with and
// without 30% of the links down.
func TestMaxFlowStopAtOwnBeta(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for _, down := range []float64{0, 0.3} {
			g := downedWaxman(t, 25, 63, down)
			p := randomProblem(t, g, mode, 6, 64)
			for _, eps := range []float64{0.05, 0.1, 0.3, 0.5} {
				checkStopAtOwnBeta(t, fmt.Sprintf("%v/down%v/eps%v", mode, down, eps), p, eps)
			}
		}
	}
}

// TestPrestepStopExact pins the bounded prestep against the unbounded one:
// bitwise-equal Lambda, rates and tree keys; every stopped session's solo
// beta/d above the first wave's minimum; and Betas, PrestepMSTOps and
// PrestepPlane identical at workers 1, 2 and 4.
func TestPrestepStopExact(t *testing.T) {
	stops := 0
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for c, inst := range []struct {
			nodes, k int
			down     float64
		}{{30, 6, 0.3}, {40, 10, 0.3}, {30, 8, 0}} {
			g := downedWaxman(t, inst.nodes, uint64(71+c), inst.down)
			seed := uint64(81 + c)
			for _, eps := range []float64{0.1, 0.3, 0.5} {
				name := fmt.Sprintf("%v/n%d/k%d/down%v/eps%v", mode, inst.nodes, inst.k, inst.down, eps)
				full, _, err := maxConcurrentFlow(randomProblem(t, g, mode, inst.k, seed), MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}}, false, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var first *MCFResult
				for _, workers := range []int{1, 2, 4} {
					p := randomProblem(t, g, mode, inst.k, seed)
					res, _, err := maxConcurrentFlow(p, MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: workers}}, false, make([]float64, inst.k))
					if err != nil {
						t.Fatalf("%s/w%d: %v", name, workers, err)
					}
					if res.Lambda != full.Lambda {
						t.Fatalf("%s/w%d: lambda %.17g, want %.17g", name, workers, res.Lambda, full.Lambda)
					}
					if got, want := testFingerprint(res.Solution), testFingerprint(full.Solution); got != want {
						t.Fatalf("%s/w%d: rates or trees differ from the unbounded prestep", name, workers)
					}
					if first == nil {
						first = res
						bp := replayBoundedPrestep(t, p, eps, full.Betas)
						bp.check(t, name, p, res.Betas, full.Betas)
						if res.PrestepMSTOps != bp.ops {
							t.Fatalf("%s: prestep MSTOps %d, want %d", name, res.PrestepMSTOps, bp.ops)
						}
						for _, s := range bp.stopped {
							if s {
								stops++
							}
						}
						continue
					}
					if fmt.Sprint(res.Betas) != fmt.Sprint(first.Betas) || res.PrestepMSTOps != first.PrestepMSTOps || res.PrestepPlane != first.PrestepPlane {
						t.Fatalf("%s/w%d: prestep betas/MSTOps/plane %v/%d/%+v differ from workers 1's %v/%d/%+v", name, workers,
							res.Betas, res.PrestepMSTOps, res.PrestepPlane, first.Betas, first.PrestepMSTOps, first.PrestepPlane)
					}
				}
			}
		}
	}
	if stops == 0 {
		t.Fatal("no prestep MaxFlow was stopped: the bounded path went unexercised")
	}
	t.Logf("%d prestep MaxFlows stopped", stops)
}

// FuzzPrestepStop fuzzes small Waxman instances (at most 16 nodes), a
// down-link mask, session members, demands, epsilon and the routing mode,
// and checks the Lemma 2 congestion bound of every solo MaxFlow, that none
// bounded at its own beta stops, and that the bounded prestep leaves the
// allocation bitwise unchanged with every beta exact or certified.
func FuzzPrestepStop(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint32(0x2a5), uint64(7), uint8(4), uint8(1), false)
	f.Add(uint64(2), uint8(16), uint32(0xf0f0), uint64(9), uint8(6), uint8(9), true)
	f.Add(uint64(3), uint8(8), uint32(0), uint64(5), uint8(3), uint8(0), true)
	f.Fuzz(func(t *testing.T, topoSeed uint64, n uint8, downMask uint32, sessionSeed uint64, k uint8, epsStep uint8, arbitrary bool) {
		nodes := 4 + int(n)%13
		net, err := topology.Waxman(topology.DefaultWaxman(nodes), rng.New(topoSeed))
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		for e := 0; e < min(32, g.NumEdges()); e++ {
			if downMask&(1<<e) != 0 {
				g.Edges[e].Capacity *= underlay.DefaultDownFactor
			}
		}
		mode := RoutingIP
		if arbitrary {
			mode = RoutingArbitrary
		}
		sessions := 3 + int(k)%4
		eps := 0.05 * float64(1+int(epsStep)%10)
		checkLemma2(t, "solo", randomProblem(t, g, mode, sessions, sessionSeed), eps)
		checkStopAtOwnBeta(t, "solo", randomProblem(t, g, mode, sessions, sessionSeed), eps)
		full, _, err := maxConcurrentFlow(randomProblem(t, g, mode, sessions, sessionSeed), MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := randomProblem(t, g, mode, sessions, sessionSeed)
		res, _, err := maxConcurrentFlow(p, MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 2}}, false, make([]float64, sessions))
		if err != nil {
			t.Fatal(err)
		}
		if res.Lambda != full.Lambda {
			t.Fatalf("lambda %.17g, want %.17g", res.Lambda, full.Lambda)
		}
		if got, want := testFingerprint(res.Solution), testFingerprint(full.Solution); got != want {
			t.Fatalf("rates or trees differ from the unbounded prestep:\n%s\nwant\n%s", got, want)
		}
		replayBoundedPrestep(t, p, eps, full.Betas).check(t, "bounded", p, res.Betas, full.Betas)
	})
}
