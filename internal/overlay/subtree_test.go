package overlay

import (
	"math"
	"math/rand"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/routing"
)

// TestSubtreeRepairRowsBitIdentical drives a persistent runner through
// randomized monotone bump sequences and, after every batch, compares every
// exact validated plane row bitwise (dist bits, parent edges) against a fresh
// ShortestPathsInto under the current lengths, and every batch result against
// a direct MinTree call. Non-vacuity: the run must take the subtree path.
func TestSubtreeRepairRowsBitIdentical(t *testing.T) {
	g, oracles := arbBatchFixture(t, 7)
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(42))
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers})
		ls := graph.NewLengthStore(g, 1)
		sp := routing.NewDijkstraScratch(g)
		dist := make([]float64, g.NumNodes())
		parent := make([]graph.EdgeID, g.NumNodes())
		for round := 0; round < 40; round++ {
			results := r.MinTreesLen(ls, nil)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("workers=%d round %d oracle %d: %v", workers, round, i, res.Err)
				}
				want, err := oracles[i].MinTree(ls.Values())
				if err != nil {
					t.Fatal(err)
				}
				if res.Tree.Key() != want.Key() {
					t.Fatalf("workers=%d round %d oracle %d: tree differs from direct call", workers, round, i)
				}
			}
			pl := r.plane
			for row := 0; row < pl.NumSources(); row++ {
				if pl.valid[row] != pl.stamp || !pl.rowExact(row) {
					continue
				}
				sp.ShortestPathsInto(g, pl.Source(row), ls.Values(), dist, parent)
				for v := range dist {
					if math.Float64bits(dist[v]) != math.Float64bits(pl.dists[row][v]) {
						t.Fatalf("workers=%d round %d row %d (src %d): dist[%d] %.17g != fresh %.17g",
							workers, round, row, pl.Source(row), v, pl.dists[row][v], dist[v])
					}
					if parent[v] != pl.parents[row][v] {
						t.Fatalf("workers=%d round %d row %d (src %d): parent[%d] %d != fresh %d",
							workers, round, row, pl.Source(row), v, pl.parents[row][v], parent[v])
					}
				}
			}
			// Mutate like a solver iteration: usually inflate one routed tree,
			// sometimes a few random edges, so touched sets vary in shape.
			if rng.Intn(4) > 0 {
				bumpTreeEdges(ls, results[rng.Intn(len(results))].Tree)
			} else {
				for j := 0; j < 1+rng.Intn(5); j++ {
					ls.Bump(rng.Intn(g.NumEdges()), 1+rng.Float64()*0.3)
				}
			}
		}
		m := r.Metrics()
		if m.SubtreeRepaired == 0 {
			t.Fatalf("workers=%d: subtree repair never fired (%+v)", workers, m)
		}
		r.Close()
	}
}

// TestSubtreeToggleDecisionIdentical runs the same bump sequence through a
// PlaneSubtree and a PlaneFull runner and requires identical batch results
// plus identical skip/refill decisions on the legacy counters — the
// decision-identity that keeps detdump byte-stable across -plane subtree and
// -plane full.
func TestSubtreeToggleDecisionIdentical(t *testing.T) {
	g, oracles := arbBatchFixture(t, 6)
	on := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 2, Plane: PlaneSubtree})
	defer on.Close()
	off := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 2, Plane: PlaneFull})
	defer off.Close()
	lsA, lsB := graph.NewLengthStore(g, 1), graph.NewLengthStore(g, 1)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		got := on.MinTreesLen(lsA, nil)
		want := off.MinTreesLen(lsB, nil)
		for i := range got {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("round %d oracle %d: %v / %v", round, i, got[i].Err, want[i].Err)
			}
			if got[i].Tree.Key() != want[i].Tree.Key() || got[i].Len != want[i].Len {
				t.Fatalf("round %d oracle %d: subtree result differs from full-refill", round, i)
			}
		}
		tree := got[rng.Intn(len(got))].Tree
		bumpTreeEdges(lsA, tree)
		bumpTreeEdges(lsB, tree)
	}
	mOn, mOff := on.Metrics(), off.Metrics()
	if mOn.SubtreeRepaired == 0 {
		t.Fatalf("subtree runner never took the subtree path (%+v)", mOn)
	}
	if mOff.SubtreeRepaired != 0 {
		t.Fatalf("full-refill runner took the subtree path (%+v)", mOff)
	}
	// Under full refill, every row the subtree runner repaired is instead
	// walk-skipped or refilled; all other classifications must agree.
	if mOn.Skipped+mOn.SubtreeRepaired+mOn.Repaired !=
		mOff.Skipped+mOff.Repaired {
		t.Fatalf("classification totals diverge: on=%+v off=%+v", mOn, mOff)
	}
}
