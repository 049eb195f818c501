package routing

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/topology"
)

// shortestPathsFingerprintWant pins the Dijkstra kernel's observable output.
// It was recorded before the heap's slot layout and sift code last changed;
// any heap or relax-loop rewrite must reproduce it exactly.
const shortestPathsFingerprintWant uint64 = 0xf758ec9007d16743

// TestShortestPathsFingerprint hashes (FNV-64a) everything the Dijkstra
// kernel exposes — the OnPop sequence, every dist bit pattern and every
// parent edge — from ShortestPathsInto on Waxman graphs of 50, 100 and 200
// nodes, under random lengths and under tie-heavy small-integer lengths. Each
// row is then carried through a chain of random monotone bumps repaired by
// RepairSubtreesInto, whose pops, repaired sets, ok flags and rows are hashed
// too. The (key, id) pop order is a total order, so any correct heap yields
// the same digest.
func TestShortestPathsFingerprint(t *testing.T) {
	got, repairs := shortestPathsFingerprint(t)
	if repairs == 0 {
		t.Fatal("no round exercised a non-empty subtree repair")
	}
	if got != shortestPathsFingerprintWant {
		t.Fatalf("Dijkstra fingerprint = %#x, want %#x", got, shortestPathsFingerprintWant)
	}
}

// shortestPathsFingerprint returns the digest and the number of non-empty
// subtree repairs that succeeded.
func shortestPathsFingerprint(t *testing.T) (digest uint64, repairs int) {
	t.Helper()
	h := fnv.New64a()
	for _, n := range []int{50, 100, 200} {
		net, err := topology.Waxman(topology.DefaultWaxman(n), rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		for _, ties := range []bool{false, true} {
			repairs += fingerprintGraph(h, net.Graph, ties, rng.New(uint64(7*n+1)))
		}
	}
	return h.Sum64(), repairs
}

// fingerprintGraph hashes fresh rows from a dozen sources on g, each followed
// by four repair rounds after monotone bumps. Tie-heavy lengths are drawn
// from {1, 2, 3, 4} and bumped by doubling, so equal keys stay common. It
// returns the number of non-empty subtree repairs that succeeded.
func fingerprintGraph(h hash.Hash64, g *graph.Graph, ties bool, r *rng.RNG) (repairs int) {
	n := g.NumNodes()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putRow := func(dist []float64, parent []graph.EdgeID) {
		for v := range dist {
			put(math.Float64bits(dist[v]))
			put(uint64(int64(parent[v])))
		}
	}
	d := graph.NewLengths(g, 0)
	for e := range d {
		if ties {
			d[e] = float64(1 + r.Intn(4))
		} else {
			d[e] = 0.5 + r.Float64()
		}
	}
	sc := NewDijkstraScratch(g)
	sc.OnPop = func(v graph.NodeID) { put(uint64(v)) }
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	dOld := graph.NewLengths(g, 0)
	var repaired []graph.NodeID
	for k := 0; k < 12; k++ {
		src := graph.NodeID(r.Intn(n))
		put(uint64(src))
		sc.ShortestPathsInto(g, src, d, dist, parent)
		putRow(dist, parent)
		for round := 0; round < 4; round++ {
			copy(dOld, d)
			for j := 0; j < 1+r.Intn(8); j++ {
				e := r.Intn(len(d))
				if ties {
					d[e] *= 2
				} else {
					d[e] *= 1 + 0.4*r.Float64()
				}
			}
			roots := dirtyRootsOf(g, parent, dOld, d)
			var ok bool
			repaired, ok = sc.RepairSubtreesInto(g, src, d, dist, parent, roots, repaired)
			for _, v := range repaired {
				put(uint64(v))
			}
			if !ok {
				put(math.MaxUint64)
				sc.ShortestPathsInto(g, src, d, dist, parent)
			} else if len(repaired) > 0 {
				repairs++
			}
			putRow(dist, parent)
		}
	}
	return repairs
}
