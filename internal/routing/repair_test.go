package routing

import (
	"math"
	"math/rand"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// repairFixture builds a random Waxman graph plus a deterministic local RNG.
func repairFixture(t *testing.T, n int, seed int64) (*graph.Graph, *rand.Rand) {
	t.Helper()
	net, err := topology.Waxman(topology.DefaultWaxman(n), rng.New(uint64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, rand.New(rand.NewSource(seed))
}

// dirtyRootsOf returns the children under every edge of the stored tree whose
// length differs between dOld and dNew — the root set the batch driver reads
// from the ledger journal.
func dirtyRootsOf(g *graph.Graph, parent []graph.EdgeID, dOld, dNew graph.Lengths) []graph.NodeID {
	var roots []graph.NodeID
	for v, e := range parent {
		if e >= 0 && dOld[e] != dNew[e] {
			roots = append(roots, graph.NodeID(v))
		}
	}
	return roots
}

// TestRepairSubtreesBitIdentical is the kernel-level property test: after
// randomized monotone growth sequences, a subtree repair of a stored row must
// be byte-equal to a fresh ShortestPathsInto — distances (bitwise), parent
// edges, and the recorded pop order restricted to the repaired set.
func TestRepairSubtreesBitIdentical(t *testing.T) {
	g, rnd := repairFixture(t, 48, 11)
	n := g.NumNodes()
	sp := NewDijkstraScratch(g)
	fresh := NewDijkstraScratch(g)

	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	wantDist := make([]float64, n)
	wantParent := make([]graph.EdgeID, n)
	dOld := graph.NewLengths(g, 0)
	d := graph.NewLengths(g, 0)
	for e := range d {
		d[e] = 0.5 + rnd.Float64()
	}

	repairs := 0
	for trial := 0; trial < 200; trial++ {
		src := graph.NodeID(rnd.Intn(n))
		sp.ShortestPathsInto(g, src, d, dist, parent)
		copy(dOld, d)
		// Monotone growth on a random edge subset, GK-style factors.
		for j := 0; j < 1+rnd.Intn(6); j++ {
			d[rnd.Intn(len(d))] *= 1 + rnd.Float64()*0.4
		}
		roots := dirtyRootsOf(g, parent, dOld, d)

		var freshPops []graph.NodeID
		fresh.OnPop = func(v graph.NodeID) { freshPops = append(freshPops, v) }
		fresh.ShortestPathsInto(g, src, d, wantDist, wantParent)
		fresh.OnPop = nil

		var repairPops []graph.NodeID
		sp.OnPop = func(v graph.NodeID) { repairPops = append(repairPops, v) }
		repaired, ok := sp.RepairSubtreesInto(g, src, d, dist, parent, roots, nil)
		sp.OnPop = nil
		if !ok {
			// The bail contract: dist/parent may be garbage, refill required.
			sp.ShortestPathsInto(g, src, d, dist, parent)
			continue
		}
		if len(roots) > 0 {
			repairs++
		}
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) {
				t.Fatalf("trial %d src %d: dist[%d] = %.17g, fresh %.17g", trial, src, v, dist[v], wantDist[v])
			}
			if parent[v] != wantParent[v] {
				t.Fatalf("trial %d src %d: parent[%d] = %d, fresh %d", trial, src, v, parent[v], wantParent[v])
			}
		}
		// The resumed pop order must be the fresh run's pop order restricted
		// to the popped set (frontier re-pops included in both).
		popped := make(map[graph.NodeID]bool, len(repairPops))
		for _, v := range repairPops {
			popped[v] = true
		}
		var restricted []graph.NodeID
		for _, v := range freshPops {
			if popped[v] {
				restricted = append(restricted, v)
			}
		}
		if len(restricted) != len(repairPops) {
			t.Fatalf("trial %d src %d: repair popped %d nodes, fresh restriction has %d", trial, src, len(repairPops), len(restricted))
		}
		for i := range repairPops {
			if repairPops[i] != restricted[i] {
				t.Fatalf("trial %d src %d: pop %d is node %d, fresh restriction pops %d", trial, src, i, repairPops[i], restricted[i])
			}
		}
		_ = repaired
	}
	if repairs == 0 {
		t.Fatal("no trial exercised a non-empty subtree repair")
	}
}

// TestRepairSubtreesAdversarialTies forces equal-key (key, id) tie-breaks: a
// grid of unit-length edges has many bitwise-equal shortest distances, so any
// divergence between the resumed and fresh heap orders flips a parent. Bumps
// use power-of-two factors to keep plenty of exact ties alive after growth.
func TestRepairSubtreesAdversarialTies(t *testing.T) {
	const side = 7
	b := graph.NewBuilder(side * side)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				if err := b.AddEdge(at(r, c), at(r, c+1), 1); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < side {
				if err := b.AddEdge(at(r, c), at(r+1, c), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g := b.Build()
	n := g.NumNodes()
	rnd := rand.New(rand.NewSource(23))
	sp := NewDijkstraScratch(g)
	fresh := NewDijkstraScratch(g)

	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	wantDist := make([]float64, n)
	wantParent := make([]graph.EdgeID, n)
	d := graph.NewLengths(g, 1)
	dOld := graph.NewLengths(g, 1)

	repairs := 0
	for trial := 0; trial < 300; trial++ {
		src := graph.NodeID(rnd.Intn(n))
		sp.ShortestPathsInto(g, src, d, dist, parent)
		copy(dOld, d)
		for j := 0; j < 1+rnd.Intn(4); j++ {
			d[rnd.Intn(len(d))] *= 2 // exact in floats: ties survive and new ones form
		}
		roots := dirtyRootsOf(g, parent, dOld, d)
		fresh.ShortestPathsInto(g, src, d, wantDist, wantParent)
		_, ok := sp.RepairSubtreesInto(g, src, d, dist, parent, roots, nil)
		if !ok {
			sp.ShortestPathsInto(g, src, d, dist, parent)
			continue
		}
		if len(roots) > 0 {
			repairs++
		}
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) || parent[v] != wantParent[v] {
				t.Fatalf("trial %d src %d node %d: repaired (%.17g, %d) vs fresh (%.17g, %d)",
					trial, src, v, dist[v], parent[v], wantDist[v], wantParent[v])
			}
		}
		// Keep lengths from growing without bound so ties keep happening.
		if trial%20 == 19 {
			for e := range d {
				d[e] = 1
			}
		}
	}
	if repairs == 0 {
		t.Fatal("no trial exercised a non-empty subtree repair")
	}
}

// TestRepairSubtreesUnderflowBails pins the scale-separation hazard the
// overlay certificate exists for: with an edge length far below one ulp of
// the accumulated distances, dist+len == dist bitwise and equal-key pop
// interleavings may differ between a resumed and a fresh run. The kernel
// itself does not verify the certificate (the caller does); this test only
// documents that such inputs genuinely diverge OR repair them correctly —
// i.e. it asserts the repaired row either bails or matches fresh, never
// silently serves a mismatch that the caller-side certificate would have
// allowed. The overlay-level gate (Plane maxDist x LengthStore.MinLengthLB)
// keeps these inputs off the subtree path entirely.
func TestRepairSubtreesUnderflowBails(t *testing.T) {
	// Build the underflow shape directly: src with two equal-distance hubs
	// and sub-ulp edges into a contested node.
	b := graph.NewBuilder(6)
	mustAdd := func(u, v int) {
		if err := b.AddEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1) // e0
	mustAdd(0, 2) // e1
	mustAdd(1, 3) // e2: sub-ulp
	mustAdd(2, 3) // e3: sub-ulp
	mustAdd(3, 4) // e4
	mustAdd(0, 5) // e5: will be bumped (in tree when shorter)
	mustAdd(5, 4) // e6
	g := b.Build()
	n := g.NumNodes()
	d := graph.Lengths{1e-4, 1e-4, 8e-21, 9e-21, 1e-4, 1e-5, 1e-5}
	sp := NewDijkstraScratch(g)
	fresh := NewDijkstraScratch(g)
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	wantDist := make([]float64, n)
	wantParent := make([]graph.EdgeID, n)
	sp.ShortestPathsInto(g, 0, d, dist, parent)
	dOld := append(graph.Lengths(nil), d...)
	d[5] *= 64 // grow the tree edge under node 5 (and 4 through it)
	roots := dirtyRootsOf(g, parent, dOld, d)
	fresh.ShortestPathsInto(g, 0, d, wantDist, wantParent)
	_, ok := sp.RepairSubtreesInto(g, 0, d, dist, parent, roots, nil)
	if ok {
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) || parent[v] != wantParent[v] {
				t.Fatalf("underflow row served with a mismatch at node %d: (%.17g, %d) vs fresh (%.17g, %d)",
					v, dist[v], parent[v], wantDist[v], wantParent[v])
			}
		}
	}
}

// fuzzRepairLengths is the small positive length set FuzzRepairSubtrees draws
// from: few distinct values, so equal-key ties are common.
var fuzzRepairLengths = [...]float64{0.5, 1, 1, 1.5, 2, 3}

// fuzzRepairMaxBumps caps the bumps per input, so lengths stay finite.
const fuzzRepairMaxBumps = 64

// repairFuzzInput encodes one FuzzRepairSubtrees input: the source, one
// length-set index per edge, then (edge, factor) bump pairs.
func repairFuzzInput(src byte, lengths []byte, bumps ...byte) []byte {
	return append(append([]byte{src}, lengths...), bumps...)
}

// FuzzRepairSubtrees checks the repair kernel against a fresh Dijkstra on a
// small Waxman graph. The input picks a source and each edge's length from
// fuzzRepairLengths (missing bytes leave length 1), fills the row, then
// applies monotone bumps through a LengthStore: each pair names an edge and a
// factor in (1, 2]. The roots are the child endpoints of the touched
// stored-tree edges, read from the journal as the plane's classifier does,
// and inputs failing the plane's certificate (AllPositive, scale separation)
// are skipped. Whenever RepairSubtreesInto reports ok, the row must equal a
// fresh ShortestPathsInto bitwise.
func FuzzRepairSubtrees(f *testing.F) {
	net, err := topology.Waxman(topology.DefaultWaxman(24), rng.New(3))
	if err != nil {
		f.Fatal(err)
	}
	g := net.Graph
	m := g.NumEdges()
	// Seeds replay the shapes of the property tests above: the GK-style
	// random growths of TestRepairSubtreesBitIdentical (seed 11) and the
	// exact doublings of TestRepairSubtreesAdversarialTies (seed 23).
	f.Add([]byte{})
	f.Add(repairFuzzInput(0, make([]byte, m), 0, 255))
	for _, seed := range []int64{11, 23} {
		rnd := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			lengths := make([]byte, m)
			for e := range lengths {
				lengths[e] = byte(rnd.Intn(len(fuzzRepairLengths)))
			}
			var bumps []byte
			for j := 0; j < 1+rnd.Intn(6); j++ {
				factor := byte(255) // exactly 2
				if seed == 11 {
					factor = byte(rnd.Intn(103)) // up to 1.4
				}
				bumps = append(bumps, byte(rnd.Intn(m)), factor)
			}
			f.Add(repairFuzzInput(byte(rnd.Intn(g.NumNodes())), lengths, bumps...))
		}
	}
	n := g.NumNodes()
	sp := NewDijkstraScratch(g)
	fresh := NewDijkstraScratch(g)
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	wantDist := make([]float64, n)
	wantParent := make([]graph.EdgeID, n)
	var roots []graph.NodeID
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := graph.NodeID(int(data[0]) % n)
		data = data[1:]
		d := graph.NewLengths(g, 1)
		for e := range d {
			if e < len(data) {
				d[e] = fuzzRepairLengths[int(data[e])%len(fuzzRepairLengths)]
			}
		}
		data = data[min(m, len(data)):]
		ls := graph.NewLengthStoreFrom(d)
		sp.ShortestPathsInto(g, src, ls.Values(), dist, parent)
		fill := ls.Epoch()
		for j := 0; j+1 < len(data) && j < 2*fuzzRepairMaxBumps; j += 2 {
			ls.Bump(graph.EdgeID(int(data[j])%m), 1+(float64(data[j+1])+1)/256)
		}
		fresh.ShortestPathsInto(g, src, ls.Values(), wantDist, wantParent)
		if !ls.AllPositive() || !(ls.MinLengthLB() > max(maxFinite(dist), maxFinite(wantDist))*0x1p-50) {
			return
		}
		roots = roots[:0]
		ls.ForEachTouched(fill, func(e graph.EdgeID) bool {
			if edge := g.Edges[e]; parent[edge.U] == e {
				roots = append(roots, edge.U)
			} else if parent[edge.V] == e {
				roots = append(roots, edge.V)
			}
			return false
		})
		if _, ok := sp.RepairSubtreesInto(g, src, ls.Values(), dist, parent, roots, nil); !ok {
			return
		}
		for v := 0; v < n; v++ {
			if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) || parent[v] != wantParent[v] {
				t.Fatalf("src %d node %d: repaired (%.17g, %d) vs fresh (%.17g, %d)",
					src, v, dist[v], parent[v], wantDist[v], wantParent[v])
			}
		}
	})
}

// maxFinite returns the largest reachable distance in dist (0 when none).
func maxFinite(dist []float64) float64 {
	m := 0.0
	for _, v := range dist {
		if v > m && v < 1e308 {
			m = v
		}
	}
	return m
}
