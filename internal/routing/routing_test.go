package routing

import (
	"fmt"
	"testing"
	"testing/quick"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = i
	}
	return out
}

func TestIPRoutesOnPath(t *testing.T) {
	net, err := topology.Path(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewIPRoutes(net.Graph, allNodes(net.Graph))
	p, err := rt.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 4 || p.Src() != 0 || p.Dst() != 4 {
		t.Fatalf("route 0->4 wrong: %+v", p)
	}
	if err := p.Validate(net.Graph); err != nil {
		t.Fatal(err)
	}
	if rt.Hops(0, 4) != 4 || rt.Hops(2, 3) != 1 {
		t.Fatal("hop counts wrong")
	}
}

func TestIPRoutesSelfRoute(t *testing.T) {
	net, _ := topology.Ring(4, 1)
	rt := NewIPRoutes(net.Graph, allNodes(net.Graph))
	p, err := rt.Route(2, 2)
	if err != nil || p.Hops() != 0 || p.Src() != 2 {
		t.Fatalf("self route wrong: %+v err=%v", p, err)
	}
}

func TestIPRoutesSymmetry(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(40), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rt := NewIPRoutes(net.Graph, allNodes(net.Graph))
	for u := 0; u < 40; u += 3 {
		for v := u + 1; v < 40; v += 5 {
			puv, err1 := rt.Route(u, v)
			pvu, err2 := rt.Route(v, u)
			if err1 != nil || err2 != nil {
				t.Fatalf("route error: %v %v", err1, err2)
			}
			rev := pvu.Reverse()
			if len(puv.Edges) != len(rev.Edges) {
				t.Fatalf("asymmetric lengths %d vs %d", len(puv.Edges), len(rev.Edges))
			}
			for i := range puv.Edges {
				if puv.Edges[i] != rev.Edges[i] {
					t.Fatalf("route(%d,%d) not the reverse of route(%d,%d)", u, v, v, u)
				}
			}
		}
	}
}

func TestIPRoutesShortest(t *testing.T) {
	// Routes must be hop-count shortest: compare against BFS hop counts on a
	// random graph.
	net, err := topology.Waxman(topology.DefaultWaxman(50), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rt := NewIPRoutes(net.Graph, allNodes(net.Graph))
	unit := graph.NewLengths(net.Graph, 1)
	dist, _ := ShortestPaths(net.Graph, 0, unit)
	for v := 1; v < 50; v++ {
		p, err := rt.Route(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if float64(p.Hops()) != dist[v] {
			t.Fatalf("route 0->%d has %d hops, shortest is %v", v, p.Hops(), dist[v])
		}
	}
}

func TestIPRoutesUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	rt := NewIPRoutes(g, []graph.NodeID{0, 2})
	if _, err := rt.Route(0, 2); err == nil {
		t.Fatal("route across components did not error")
	}
	if rt.Hops(0, 2) != -1 {
		t.Fatal("unreachable hops should be -1")
	}
}

func TestIPRoutesPanicsWithoutTree(t *testing.T) {
	net, _ := topology.Ring(5, 1)
	rt := NewIPRoutes(net.Graph, []graph.NodeID{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("querying unindexed endpoints did not panic")
		}
	}()
	rt.Route(3, 4)
}

func TestIPRoutesPartialIndex(t *testing.T) {
	// Route(u,v) must work when only one endpoint's tree exists.
	net, _ := topology.Ring(6, 1)
	rt := NewIPRoutes(net.Graph, []graph.NodeID{5})
	p, err := rt.Route(5, 2)
	if err != nil || p.Src() != 5 || p.Dst() != 2 {
		t.Fatalf("route via single tree failed: %+v %v", p, err)
	}
	p2, err := rt.Route(2, 5)
	if err != nil || p2.Src() != 2 || p2.Dst() != 5 {
		t.Fatalf("reverse route via single tree failed: %+v %v", p2, err)
	}
	if rt.Hops(2, 5) != p.Hops() {
		t.Fatal("hops via single tree wrong")
	}
}

func TestMaxHops(t *testing.T) {
	net, _ := topology.Path(6, 1)
	rt := NewIPRoutes(net.Graph, allNodes(net.Graph))
	if got := rt.MaxHops(allNodes(net.Graph)); got != 5 {
		t.Fatalf("MaxHops = %d, want 5", got)
	}
	if got := rt.MaxHops([]graph.NodeID{1, 3}); got != 2 {
		t.Fatalf("MaxHops subset = %d, want 2", got)
	}
}

func TestDijkstraMatchesBFSOnUnitLengths(t *testing.T) {
	check := func(seed uint64) bool {
		net, err := topology.Waxman(topology.DefaultWaxman(30), rng.New(seed))
		if err != nil {
			return false
		}
		g := net.Graph
		unit := graph.NewLengths(g, 1)
		dist, parent := ShortestPaths(g, 0, unit)
		rt := NewIPRoutes(g, []graph.NodeID{0})
		for v := 1; v < g.NumNodes(); v++ {
			p, err := DijkstraRoute(g, 0, v, parent)
			if err != nil {
				return false
			}
			if err := p.Validate(g); err != nil {
				return false
			}
			if float64(p.Hops()) != dist[v] {
				return false
			}
			if rt.Hops(0, v) != int(dist[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraRespectsWeights(t *testing.T) {
	// Triangle where the direct edge is expensive: 0-2 costs 10, 0-1-2
	// costs 2.
	b := graph.NewBuilder(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	d := graph.NewLengths(g, 1)
	id02, _ := g.EdgeBetween(0, 2)
	d[id02] = 10
	dist, parent := ShortestPaths(g, 0, d)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2", dist[2])
	}
	p, err := DijkstraRoute(g, 0, 2, parent)
	if err != nil || p.Hops() != 2 {
		t.Fatalf("route should detour: %+v %v", p, err)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	_, parent := ShortestPaths(g, 0, graph.NewLengths(g, 1))
	if _, err := DijkstraRoute(g, 0, 2, parent); err == nil {
		t.Fatal("unreachable route did not error")
	}
}

// walkRoute is the reference route extraction: append parents from leaf up
// to root, then reverse the result to run root first.
func walkRoute(g *graph.Graph, parent []graph.EdgeID, root, leaf graph.NodeID) (Path, bool) {
	p := Path{Nodes: []graph.NodeID{leaf}}
	for v := leaf; v != root; {
		id := parent[v]
		if id < 0 {
			return Path{}, false
		}
		v = g.Edges[id].Other(v)
		p.Nodes = append(p.Nodes, v)
		p.Edges = append(p.Edges, id)
	}
	return p.Reverse(), true
}

// samePath reports whether got equals want element by element and got's
// slices are exactly sized.
func samePath(got, want Path) bool {
	if len(got.Nodes) != len(want.Nodes) || len(got.Edges) != len(want.Edges) ||
		cap(got.Nodes) != len(got.Nodes) || cap(got.Edges) != len(got.Edges) {
		return false
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			return false
		}
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			return false
		}
	}
	return true
}

// TestRouteExtractionMatchesParentWalk checks DijkstraRoute and IPRoutes.Route
// against the reference walk on a graph with an unreachable island: same
// nodes and edges in the same order, exact-size slices, and the same error
// text for unreachable pairs. The route table indexes only even nodes, so
// odd-first queries take the other endpoint's tree.
func TestRouteExtractionMatchesParentWalk(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(40), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(43)
	for _, e := range net.Graph.Edges {
		if err := b.AddEdge(e.U, e.V, e.Capacity); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(40, 41, 1); err != nil { // island {40, 41}; 42 isolated
		t.Fatal(err)
	}
	g := b.Build()
	n := g.NumNodes()
	r := rng.New(9)
	d := graph.NewLengths(g, 0)
	for e := range d {
		d[e] = 0.5 + r.Float64()
	}
	var even []graph.NodeID
	for v := 0; v < n; v += 2 {
		even = append(even, v)
	}
	rt := NewIPRoutes(g, even)
	for src := 0; src < n; src++ {
		_, parent := ShortestPaths(g, src, d)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want, ok := walkRoute(g, parent, src, dst)
			got, err := DijkstraRoute(g, src, dst, parent)
			if !ok {
				msg := fmt.Sprintf("routing: node %d unreachable from %d", dst, src)
				if err == nil || err.Error() != msg {
					t.Fatalf("DijkstraRoute(%d, %d) error = %v, want %q", src, dst, err, msg)
				}
			} else if err != nil || !samePath(got, want) {
				t.Fatalf("DijkstraRoute(%d, %d) = %+v, %v; want %+v", src, dst, got, err, want)
			}
			if src%2 == 1 && dst%2 == 1 {
				continue // neither endpoint is indexed
			}
			root, leaf := min(src, dst), max(src, dst)
			if root%2 == 1 {
				root, leaf = leaf, root
			}
			want, ok = walkRoute(g, rt.parentEdge[root], root, leaf)
			if ok && root != src {
				want = want.Reverse()
			}
			got, err = rt.Route(src, dst)
			if !ok {
				msg := fmt.Sprintf("routing: node %d unreachable from %d", leaf, root)
				if err == nil || err.Error() != msg {
					t.Fatalf("Route(%d, %d) error = %v, want %q", src, dst, err, msg)
				}
			} else if err != nil || !samePath(got, want) {
				t.Fatalf("Route(%d, %d) = %+v, %v; want %+v", src, dst, got, err, want)
			}
		}
	}
}

func TestPathReverse(t *testing.T) {
	p := Path{Nodes: []graph.NodeID{1, 2, 3}, Edges: []graph.EdgeID{10, 11}}
	r := p.Reverse()
	if r.Src() != 3 || r.Dst() != 1 || r.Edges[0] != 11 || r.Edges[1] != 10 {
		t.Fatalf("Reverse wrong: %+v", r)
	}
	// Reversing twice is the identity.
	rr := r.Reverse()
	for i := range p.Nodes {
		if rr.Nodes[i] != p.Nodes[i] {
			t.Fatal("double reverse not identity")
		}
	}
}

func TestPathValidate(t *testing.T) {
	net, _ := topology.Path(3, 1)
	g := net.Graph
	e01, _ := g.EdgeBetween(0, 1)
	e12, _ := g.EdgeBetween(1, 2)
	good := Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{e01, e12}}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := Path{Nodes: []graph.NodeID{0, 2}, Edges: []graph.EdgeID{e01}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("mismatched edge accepted")
	}
	if err := (Path{}).Validate(g); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := (Path{Nodes: []graph.NodeID{0, 1}}).Validate(g); err == nil {
		t.Fatal("edge/node count mismatch accepted")
	}
	if err := (Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{99}}).Validate(g); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func BenchmarkBFSRouteTable100(b *testing.B) {
	net, err := topology.Waxman(topology.DefaultWaxman(100), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	nodes := allNodes(net.Graph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIPRoutes(net.Graph, nodes)
	}
}

func BenchmarkDijkstra100(b *testing.B) {
	net, err := topology.Waxman(topology.DefaultWaxman(100), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	d := graph.NewLengths(net.Graph, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPaths(net.Graph, i%100, d)
	}
}
