package overlay

import (
	"fmt"
	"sync"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
)

// memoEnv builds a Waxman instance and a fixed oracle over a random session
// of the given size.
func memoEnv(t testing.TB, seed uint64, size int) (*graph.Graph, *FixedOracle) {
	t.Helper()
	r := rng.New(seed)
	net, err := topology.Waxman(topology.DefaultWaxman(60), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	members := r.Split(1).Sample(60, size)
	s, err := NewSession(0, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewFixedOracle(net.Graph, routing.NewIPRoutes(net.Graph, members), s)
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, fo
}

// randomLengths returns count random length functions over g.
func randomLengths(g *graph.Graph, seed uint64, count int) []graph.Lengths {
	r := rng.New(seed)
	ds := make([]graph.Lengths, count)
	for k := range ds {
		ds[k] = graph.NewLengths(g, 0)
		for e := range ds[k] {
			ds[k][e] = 0.01 + r.Float64()
		}
	}
	return ds
}

// unmemoizedTree is the reference: Prim over the fixed routes' d-lengths,
// assembled through NewTree and its lazy Use, sharing no code with the
// oracle's memo path.
func unmemoizedTree(o *FixedOracle, d graph.Lengths) *Tree {
	n := o.Session().Size()
	raw := primComplete(n, func(i, j int) float64 { return d.PathLength(o.Route(i, j).Edges) })
	routes := make([]routing.Path, len(raw))
	for k, p := range raw {
		routes[k] = o.Route(p[0], p[1])
	}
	return NewTree(o.Session().ID, raw, routes)
}

func sameTree(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for k := range want.Pairs {
		if got.Pairs[k] != want.Pairs[k] {
			t.Fatalf("%s: pair %d = %v, want %v", label, k, got.Pairs[k], want.Pairs[k])
		}
		ge, we := got.Routes[k].Edges, want.Routes[k].Edges
		if len(ge) != len(we) {
			t.Fatalf("%s: route %d has %d edges, want %d", label, k, len(ge), len(we))
		}
		for h := range we {
			if ge[h] != we[h] {
				t.Fatalf("%s: route %d edge %d = %d, want %d", label, k, h, ge[h], we[h])
			}
		}
	}
	gu, wu := got.Use(), want.Use()
	if len(gu) != len(wu) {
		t.Fatalf("%s: use has %d edges, want %d", label, len(gu), len(wu))
	}
	for i := range wu {
		if gu[i] != wu[i] {
			t.Fatalf("%s: use[%d] = %+v, want %+v", label, i, gu[i], wu[i])
		}
	}
	if got.KeyHash() != want.KeyHash() || got.Key() != want.Key() {
		t.Fatalf("%s: key %q (%#x), want %q (%#x)", label, got.Key(), got.KeyHash(), want.Key(), want.KeyHash())
	}
}

// TestFixedOracleMemoMatchesUnmemoized checks that memoized fixed-oracle
// trees equal a from-scratch build in pairs, route edges, Use and key, for
// every memoizable session size and for the first size past the uint64 key.
// Length functions repeat, so later calls are served from the memo.
func TestFixedOracleMemoMatchesUnmemoized(t *testing.T) {
	for size := 2; size <= memoMaxMembers+1; size++ {
		g, fo := memoEnv(t, uint64(100+size), size)
		ds := randomLengths(g, uint64(200+size), 6)
		sc := NewScratch(g)
		for trial := 0; trial < 24; trial++ {
			d := ds[trial%len(ds)]
			got, err := fo.MinTreeWith(d, sc)
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, fmt.Sprintf("size %d trial %d", size, trial), got, unmemoizedTree(fo, d))
		}
		memoized := len(fo.memo)
		switch {
		case size > memoMaxMembers && memoized != 0:
			t.Fatalf("size %d: %d trees memoized past the uint64 key", size, memoized)
		case size <= memoMaxMembers && (memoized == 0 || memoized > len(ds)):
			t.Fatalf("size %d: %d trees memoized for %d length functions", size, memoized, len(ds))
		}
	}
}

// TestFixedOracleMemoFullSkipsStore checks that a full memo keeps serving
// correct trees without growing.
func TestFixedOracleMemoFullSkipsStore(t *testing.T) {
	g, fo := memoEnv(t, 7, 6)
	fo.memo = make(map[uint64]*Tree, memoCap)
	for k := 0; k < memoCap; k++ {
		fo.memo[1<<63|uint64(k)] = nil // no real pair set sets bit 63
	}
	for _, d := range randomLengths(g, 8, 4) {
		got, err := fo.MinTree(d)
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, "full memo", got, unmemoizedTree(fo, d))
	}
	if len(fo.memo) != memoCap {
		t.Fatalf("full memo grew to %d entries", len(fo.memo))
	}
}

// TestFixedOracleMemoHitAllocs: a memo hit allocates nothing.
func TestFixedOracleMemoHitAllocs(t *testing.T) {
	g, fo := memoEnv(t, 9, 8)
	sc := NewScratch(g)
	d := randomLengths(g, 10, 1)[0]
	first, err := fo.MinTreeWith(d, sc)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr, err := fo.MinTreeWith(d, sc)
		if err != nil || tr != first {
			t.Fatalf("memo hit returned %p (err %v), want the memoized %p", tr, err, first)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %v per call, want 0", allocs)
	}
}

// TestFixedOracleConcurrentMinTree runs MinTree on one oracle from several
// goroutines, reading every accessor of the shared trees; under -race it
// catches any lazily cached tree state.
func TestFixedOracleConcurrentMinTree(t *testing.T) {
	g, fo := memoEnv(t, 11, 7)
	ds := randomLengths(g, 12, 5)
	want := make([]string, len(ds))
	for k, d := range ds {
		want[k] = unmemoizedTree(fo, d).Key()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for trial := 0; trial < 20; trial++ {
				k := (w + trial) % len(ds)
				tr, err := fo.MinTree(ds[k])
				if err != nil {
					errs <- err.Error()
					return
				}
				_ = tr.KeyHash()
				_ = tr.Use()
				if tr.Key() != want[k] {
					errs <- "concurrent MinTree returned " + tr.Key() + ", want " + want[k]
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
