package core

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/overlay"
	"overcast/internal/rng"
	"overcast/internal/topology"
	"overcast/internal/underlay"
)

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

// boundSlack is the relative float slack granted to every bound the anchor
// tests check: each holds in exact arithmetic, and the floats behind it
// (D, tree lengths, the rescale) carry relative errors far below it.
const boundSlack = 1e-9

// checkAnchor runs the logged anchor solve of p and checks its certificate:
// Lambda is below both the phase loop's dual bound and the scale round's
// zetaHi, the solution is feasible, and the anchor certifies at least
// (1-eps)^3 after the zetaLo fallback. The anchor's own lambda must be
// bitwise the concurrent ratio of its rescaled flows.
func checkAnchor(t testing.TB, name string, p *Problem, eps float64) (*MCFResult, *mcfAnchor) {
	t.Helper()
	res, anchor, err := denseAnchor(p, MaxConcurrentFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 2}})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	switch {
	case math.Float64bits(anchor.lambda) != math.Float64bits(res.Lambda):
		t.Fatalf("%s: anchor lambda %.17g, rescaled flows' ratio %.17g", name, anchor.lambda, res.Lambda)
	case res.Lambda > res.DualBound*(1+boundSlack):
		t.Fatalf("%s: lambda %.17g above its dual bound %.17g", name, res.Lambda, res.DualBound)
	case res.Lambda > anchor.zetaHi*(1+boundSlack):
		t.Fatalf("%s: lambda %.17g above zetaHi %.17g", name, res.Lambda, anchor.zetaHi)
	case res.MaxCongestion() > 1+boundSlack:
		t.Fatalf("%s: max congestion %.17g", name, res.MaxCongestion())
	case res.Certified < math.Pow(1-eps, 3):
		t.Fatalf("%s: certified %.17g below (1-eps)^3 = %.17g", name, res.Certified, math.Pow(1-eps, 3))
	case res.PrestepMSTOps != p.K():
		t.Fatalf("%s: scale round spent %d oracle calls, want k = %d", name, res.PrestepMSTOps, p.K())
	}
	return res, anchor
}

// FuzzAnchorCertificate fuzzes small Waxman instances (at most 16 nodes), a
// down-link mask, session members, demands, epsilon and the routing mode
// through the logged anchor solve, and checks its certificate (see
// checkAnchor). An "exceeded phases" or doubling error fails it too.
func FuzzAnchorCertificate(f *testing.F) {
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
		eps := 0.05 * float64(1+int(epsStep)%10)
		checkAnchor(t, "anchor", randomProblem(t, g, mode, 3+int(k)%4, sessionSeed), eps)
	})
}

// TestAnchorCertifiesOnWaxman checks the anchor certificate (see
// checkAnchor) in both routing modes, across epsilon, with and without 30%
// of the links down.
func TestAnchorCertifiesOnWaxman(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingIP, RoutingArbitrary} {
		for c, inst := range []struct {
			nodes, k int
			down     float64
		}{{30, 6, 0.3}, {40, 10, 0.3}, {30, 8, 0}} {
			g := downedWaxman(t, inst.nodes, uint64(71+c), inst.down)
			for _, eps := range []float64{0.1, 0.3, 0.5} {
				name := fmt.Sprintf("%v/n%d/k%d/down%v/eps%v", mode, inst.nodes, inst.k, inst.down, eps)
				checkAnchor(t, name, randomProblem(t, g, mode, inst.k, uint64(81+c)), eps)
			}
		}
	}
}

// pairProblem returns two unit-demand sessions between nodes 0 and 1 of g
// under arbitrary routing.
func pairProblem(t *testing.T, g *graph.Graph) *Problem {
	t.Helper()
	sessions := make([]*overlay.Session, 2)
	for i := range sessions {
		s, err := overlay.NewSession(i, []graph.NodeID{0, 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	p, err := NewProblem(g, sessions, RoutingArbitrary)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// phasesAt runs a logged phase loop over p at demand scale zeta, capped by
// the scaled-optimum bound k·zetaHi/zeta that anchor's bracket gives.
func phasesAt(t *testing.T, p *Problem, eps float64, anchor *mcfAnchor, zeta float64) *MCFResult {
	t.Helper()
	runner := overlay.NewBatchRunnerOpts(p.G, p.Oracles, overlay.BatchOptions{Workers: 1})
	defer runner.Close()
	ids := make([]int, p.K())
	for i := range ids {
		ids[i] = i
	}
	gk := newMCFState(p.G, eps, p.Sessions, ids)
	_, phases, err := mcfPhases(runner, gk, p.Sessions, ids, zeta, float64(p.K())*anchor.zetaHi/zeta)
	if err != nil {
		t.Fatalf("phase loop at zeta %v: %v", zeta, err)
	}
	return phaseResult(p, gk, phases)
}

// TestAnchorThinLinkCompletesAtZetaLo pins the doubling cap on the instance
// with the widest demand-scale bracket: one direct link of capacity 1
// between the members of two sessions, and paths parallel to it of two
// links of capacity 1.9 each. Under l_e = 1/c_e the direct link is the
// minimum tree, so b·len = 1 and zetaHi/zetaLo = m, the most it can be,
// while the sessions can carry 1+1.9·paths in all, about 0.95·m, so
// lambda* is close to zetaHi/k. At zeta = zetaLo the scaled optimum
// k·lambda*/zetaLo is then close to m, and the phase loop needs about
// log2(m) doubling rounds: more than the log2(k)+2 that a prestep scale
// needs, and within the cap derived from the bracket.
func TestAnchorThinLinkCompletesAtZetaLo(t *testing.T) {
	const eps, paths = 0.3, 40
	b := graph.NewBuilder(2 + paths)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < paths; j++ {
		if err := b.AddEdge(0, 2+j, 1.9); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(2+j, 1, 1.9); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p := pairProblem(t, g)
	_, anchor := checkAnchor(t, "thin", p, eps)
	m, k := float64(g.NumEdges()), p.K()
	if ratio := anchor.zetaHi / anchor.zetaLo; math.Abs(ratio-m) > m*boundSlack {
		t.Fatalf("zetaHi/zetaLo = %.17g, want m = %v", ratio, m)
	}
	res := phasesAt(t, p, eps, anchor, anchor.zetaLo)
	if prestepCap := phaseBudget(g.NumEdges(), eps) * (bits.Len(uint(k)) + 2); res.Phases <= prestepCap {
		t.Fatalf("phase loop at zetaLo took %d phases, within the prestep-scale cap %d: the instance does not stress the cap", res.Phases, prestepCap)
	}
	if lambdaStar := (1 + 1.9*paths) / float64(k); res.Lambda > lambdaStar*(1+boundSlack) || res.Lambda < math.Pow(1-eps, 3)*lambdaStar {
		t.Fatalf("lambda at zetaLo %.17g, optimum %v", res.Lambda, lambdaStar)
	}
	if res.Certified < math.Pow(1-eps, 3) {
		t.Fatalf("certified at zetaLo %.17g below (1-eps)^3", res.Certified)
	}
}

// TestAnchorFallsBackToZetaLo pins the certificate gate on an instance
// whose optimum sits at the low end of the bracket: two sessions share the
// one link of capacity 1 between their members, so lambda* = zetaLo/k,
// while leaf links hung off one member raise m, and with it zetaHi =
// m·zetaLo. At the geometric mean the scaled optimum is 1/sqrt(m); with m
// = 3001 at eps 0.5 a single phase drives D to 1, so the loop reads only
// the epoch-0 dual bound, about zetaHi/k, and certifies far below
// (1-eps)^3. The anchor must rerun at zetaLo, certify at least (1-eps)^3
// there, and count the discarded run's oracle calls.
func TestAnchorFallsBackToZetaLo(t *testing.T) {
	const eps, leaves = 0.5, 3000
	b := graph.NewBuilder(2 + leaves)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < leaves; j++ {
		if err := b.AddEdge(1, 2+j, 100); err != nil {
			t.Fatal(err)
		}
	}
	p := pairProblem(t, b.Build())
	res, anchor := checkAnchor(t, "bridge", p, eps)
	if lambdaStar := 1 / float64(p.K()); res.Lambda < math.Pow(1-eps, 3)*lambdaStar {
		t.Fatalf("lambda %.17g, optimum %v", res.Lambda, lambdaStar)
	}
	first := phasesAt(t, p, eps, anchor, math.Sqrt(anchor.zetaLo*anchor.zetaHi))
	if first.Certified >= math.Pow(1-eps, 3) {
		t.Fatalf("geometric-mean run certifies %.17g: the fallback goes unexercised", first.Certified)
	}
	if rerun := phasesAt(t, p, eps, anchor, anchor.zetaLo); res.MSTOps != first.MSTOps+rerun.MSTOps {
		t.Fatalf("anchor MSTOps %d, want the discarded run's %d plus the rerun's %d", res.MSTOps, first.MSTOps, rerun.MSTOps)
	}
	t.Logf("certified %.3g at the geometric mean, %.3g after the rerun at zetaLo", first.Certified, res.Certified)
}

// lemma2Bound is L = log_{1+eps}((1+eps)/delta), the Lemma 2 bound on the
// raw congestion MaxFlow ends with. Every tree it routes has normalized
// length below 1, so each of its edges is below 1 before the bump and below
// 1+eps after it; a relative load x <= 1 multiplies a length by 1+eps·x >=
// (1+eps)^x, so an edge of congestion x_e ends at least delta·(1+eps)^x_e.
// Hence every x_e < L, and the rescaled value of a run that ends having
// routed raw flow F_T is at least F_T/L.
func lemma2Bound(eps, delta float64) float64 {
	return math.Log((1+eps)/delta) / math.Log(1+eps)
}

// lemma2Rounding is the relative float slack checkLemma2 grants the Lemma 2
// bound. In exact arithmetic the raw congestion is below L; in floats a run
// whose lengths reach exactly 1 can take one more step and end a few ulps
// above it (a 2-member, 1-hop session at eps 0.1 ends at L(1+4e-16)).
const lemma2Rounding = 1e-9

// checkLemma2 runs every session of p solo and checks the Lemma 2 bound:
// the raw congestion stays below L (up to lemma2Rounding), so the rescaled
// beta is at least the raw flow routed over L.
func checkLemma2(t testing.TB, name string, p *Problem, eps float64) {
	t.Helper()
	for i := range p.Sessions {
		sub := singleSessionProblem(p, i)
		raw, err := maxFlow(sub, MaxFlowOptions{Epsilon: eps, SolverOptions: SolverOptions{Workers: 1}})
		if err != nil {
			t.Fatalf("%s: session %d: %v", name, i, err)
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

// TestMaxFlowLemma2Congestion pins Garg–Könemann's Lemma 2 on the solo max
// flows of the MCF prestep: each ends with raw congestion below L =
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
