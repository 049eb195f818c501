package routing

import (
	"strconv"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// TestDijkstraScratchMatchesShortestPaths checks that the scratch-based
// Dijkstra produces identical distances and parent edges to the allocating
// entry point on random topologies, across repeated reuse of one scratch.
func TestDijkstraScratchMatchesShortestPaths(t *testing.T) {
	r := rng.New(11)
	net, err := topology.Waxman(topology.DefaultWaxman(120), r)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	d := net.LinkDelays()
	sc := NewDijkstraScratch(g)
	for src := 0; src < 20; src++ {
		wantDist, wantParent := ShortestPaths(g, src, d)
		gotDist, gotParent := sc.ShortestPaths(g, src, d)
		for v := 0; v < g.NumNodes(); v++ {
			if gotDist[v] != wantDist[v] {
				t.Fatalf("src %d: dist[%d] = %v, want %v", src, v, gotDist[v], wantDist[v])
			}
			if gotParent[v] != wantParent[v] {
				t.Fatalf("src %d: parent[%d] = %v, want %v", src, v, gotParent[v], wantParent[v])
			}
		}
	}
}

// TestShortestPathsIntoAllocs is the allocation regression test for the
// Dijkstra hot path: with pooled scratch state, a shortest-path computation
// must not allocate at all.
func TestShortestPathsIntoAllocs(t *testing.T) {
	net, err := topology.Waxman(topology.DefaultWaxman(300), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	d := net.LinkDelays()
	sc := NewDijkstraScratch(g)
	dist := make([]float64, g.NumNodes())
	parent := make([]graph.EdgeID, g.NumNodes())
	allocs := testing.AllocsPerRun(20, func() {
		sc.ShortestPathsInto(g, 0, d, dist, parent)
	})
	if allocs != 0 {
		t.Fatalf("ShortestPathsInto allocates %v per run, want 0", allocs)
	}
}

// BenchmarkShortestPathsInto times the allocation-free Dijkstra kernel on
// Waxman graphs with random positive lengths (distinct keys, unlike the
// unit-length BenchmarkDijkstra100), one reused scratch, sources cycling over
// every node.
func BenchmarkShortestPathsInto(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := rng.New(uint64(n))
			net, err := topology.Waxman(topology.DefaultWaxman(n), r)
			if err != nil {
				b.Fatal(err)
			}
			g := net.Graph
			d := graph.NewLengths(g, 0)
			for e := range d {
				d[e] = 0.5 + r.Float64()
			}
			sc := NewDijkstraScratch(g)
			dist := make([]float64, n)
			parent := make([]graph.EdgeID, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ShortestPathsInto(g, graph.NodeID(i%n), d, dist, parent)
			}
		})
	}
}
