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

// TestSubtreeRepairSparseBatches drives subtree repair through batches that
// name a rotating subset of oracles, so rows sit out several batches and
// their dirty roots must come from a journal window spanning all of them.
// One batch follows a window longer than the row's node count, and one
// follows a burst that overruns graph.JournalWindow. Every result must equal
// a direct MinTree call and every exact validated row a fresh
// ShortestPathsInto, bitwise. Non-vacuity: a subtree repair succeeds on a
// window spanning several batches and on a window longer than n, and a row
// whose window the journal no longer covers is refilled.
func TestSubtreeRepairSparseBatches(t *testing.T) {
	const k = 9
	g, oracles := arbBatchFixture(t, k)
	n := g.NumNodes()
	for _, workers := range []int{1, 2} {
		rng := rand.New(rand.NewSource(5))
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers})
		ls := graph.NewLengthStore(g, 1)
		sp := routing.NewDijkstraScratch(g)
		dist := make([]float64, n)
		parent := make([]graph.EdgeID, n)
		// batchOf maps a batch's ledger epoch to its index, so a row's fill
		// epoch tells how many batches its window spans.
		batchOf := map[graph.Epoch]int{}
		var spanRepairs, longRepairs, unknownRefills int
		for round := 0; round < 120; round++ {
			// A rotating window of 2..4 consecutive oracle ids.
			ids := make([]int, 2+round%3)
			for j := range ids {
				ids[j] = (round + 2*j) % k
			}
			pl := r.plane
			type window struct {
				fill    graph.Epoch
				covered bool
			}
			before := map[graph.NodeID]window{}
			if pl != nil {
				for row := 0; row < pl.NumSources(); row++ {
					fill := pl.FillEpoch(row)
					if fill < 0 {
						continue
					}
					covered := ls.ForEachTouched(fill, func(graph.EdgeID) bool { return true })
					before[pl.Source(row)] = window{fill, covered}
				}
			}
			cur := ls.Epoch()
			batchOf[cur] = round
			results := r.MinTreesLen(ls, ids)
			for j, res := range results {
				if res.Err != nil {
					t.Fatalf("workers=%d round %d oracle %d: %v", workers, round, ids[j], res.Err)
				}
				want, err := oracles[ids[j]].MinTree(ls.Values())
				if err != nil {
					t.Fatal(err)
				}
				if res.Tree.Key() != want.Key() || res.Len != want.LengthUnder(ls.Values()) {
					t.Fatalf("workers=%d round %d oracle %d: result differs from direct call", workers, round, ids[j])
				}
			}
			pl = r.plane
			for kk, row32 := range r.toRepair {
				w := before[pl.Source(int(row32))]
				if !r.repairOK[kk] {
					continue
				}
				if round-batchOf[w.fill] >= 3 {
					spanRepairs++
				}
				if cur-w.fill > graph.Epoch(n) {
					longRepairs++
				}
			}
			for _, row32 := range r.toFill {
				if w, ok := before[pl.Source(int(row32))]; ok && !w.covered {
					unknownRefills++
				}
			}
			for row := 0; row < pl.NumSources(); row++ {
				if pl.valid[row] != pl.stamp || !pl.rowExact(row) {
					continue
				}
				sp.ShortestPathsInto(g, pl.Source(row), ls.Values(), dist, parent)
				for v := range dist {
					if math.Float64bits(dist[v]) != math.Float64bits(pl.dists[row][v]) || parent[v] != pl.parents[row][v] {
						t.Fatalf("workers=%d round %d row %d (src %d): node %d is (%.17g, %d), fresh fill (%.17g, %d)",
							workers, round, row, pl.Source(row), v, pl.dists[row][v], pl.parents[row][v], dist[v], parent[v])
					}
				}
			}
			switch {
			case round == 40:
				// Overrun the journal on one routed edge: windows reaching
				// back before the burst become unknowable.
				e := results[0].Tree.Use()[0].Edge
				for j := 0; j <= graph.JournalWindow; j++ {
					ls.Bump(e, 1)
				}
			case round%7 == 3:
				// A long scatter of small bumps: the next windows exceed n.
				for j := 0; j < 2*n; j++ {
					ls.Bump(rng.Intn(g.NumEdges()), 1+rng.Float64()*0.01)
				}
			default:
				bumpTreeEdges(ls, results[rng.Intn(len(results))].Tree)
			}
		}
		r.Close()
		if spanRepairs == 0 || longRepairs == 0 || unknownRefills == 0 {
			t.Fatalf("workers=%d: repairs across >=3 batches %d, repairs on windows > n %d, refills from unknown windows %d; want all > 0 (%+v)",
				workers, spanRepairs, longRepairs, unknownRefills, r.Metrics())
		}
	}
}
