package overlay

import (
	"testing"

	"overcast/internal/graph"
)

// planeModes is every PlaneMode, for sweeps that must hold in each.
var planeModes = []PlaneMode{PlaneSubtree, PlaneOff}

// bumpTreeEdges applies a MaxFlow-style monotone inflation to every edge of
// t, journaled on ls.
func bumpTreeEdges(ls *graph.LengthStore, t *Tree) {
	for _, use := range t.Use() {
		ls.Bump(use.Edge, 1+0.05*float64(use.Count))
	}
}

// TestRepairSkipsUntouchedRows drives the persistent plane through the
// MaxFlow pattern — evaluate all, inflate one tree's edges, evaluate again —
// and pins both halves of the repair contract: rows do get skipped, and
// every slot stays bitwise identical to a direct MinTree call under the
// mutated lengths.
func TestRepairSkipsUntouchedRows(t *testing.T) {
	g, oracles := arbBatchFixture(t, 7)
	for _, tc := range []struct {
		mode    PlaneMode
		workers int
	}{{PlaneSubtree, 1}, {PlaneSubtree, 4}} {
		mode, workers := tc.mode, tc.workers
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers, Plane: mode})
		ls := graph.NewLengthStore(g, 1)
		for round := 0; round < 6; round++ {
			results := r.MinTreesLen(ls, nil)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("%v workers=%d round %d oracle %d: %v", mode, workers, round, i, res.Err)
				}
				want, err := oracles[i].MinTree(ls.Values())
				if err != nil {
					t.Fatal(err)
				}
				if res.Tree.Key() != want.Key() {
					t.Fatalf("%v workers=%d round %d oracle %d: repaired tree differs from direct call", mode, workers, round, i)
				}
				if res.Len != want.LengthUnder(ls.Values()) {
					t.Fatalf("%v workers=%d round %d oracle %d: len %v != %v", mode, workers, round, i, res.Len, want.LengthUnder(ls.Values()))
				}
			}
			// Inflate one session's tree, like a routed MaxFlow iteration.
			bumpTreeEdges(ls, results[round%len(results)].Tree)
		}
		m := r.Metrics()
		if m.Skipped == 0 {
			t.Fatalf("%v workers=%d: no refill was ever skipped (%+v)", mode, workers, m)
		}
		if m.Repaired+m.SubtreeRepaired == 0 {
			t.Fatalf("%v workers=%d: no row was ever repaired — bumps never hit a read path? (%+v)", mode, workers, m)
		}
		if (mode == PlaneSubtree) != (m.SubtreeRepaired > 0) {
			t.Fatalf("%v workers=%d: subtree repairs %d (%+v)", mode, workers, m.SubtreeRepaired, m)
		}
		r.Close()
	}
}

// TestRepairLedgerSwapInvalidates pins the ledger-identity guard: a runner
// fed a *different* LengthStore must drop every persistent row (their
// epochs are meaningless under the new ledger) and still answer exactly.
func TestRepairLedgerSwapInvalidates(t *testing.T) {
	g, oracles := arbBatchFixture(t, 5)
	r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 1})
	defer r.Close()

	lsA := graph.NewLengthStore(g, 1)
	r.MinTrees(lsA, nil)
	sourcesAfterA := r.Metrics().Sources

	// A fresh ledger with different contents but the same epoch counter (0):
	// trusting epochs across stores would wrongly skip every refill here.
	lsB := graph.NewLengthStoreFrom(lengthsFor(g, 3))
	results := r.MinTrees(lsB, nil)
	for i, res := range results {
		want, err := oracles[i].MinTree(lsB.Values())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || res.Tree.Key() != want.Key() {
			t.Fatalf("oracle %d: stale row served across a ledger swap", i)
		}
	}
	m := r.Metrics()
	if m.Skipped != 0 || m.Sources <= sourcesAfterA {
		t.Fatalf("ledger swap must refill everything, got %+v (sources after A: %d)", m, sourcesAfterA)
	}
}

// TestRepairRoundAllocs is the allocation gate for the repair hot path:
// under the same bump-one-tree round pattern, rounds with the persistent
// plane must allocate no more than plane-off rounds do — the dirty checks,
// journal replays and skip bookkeeping all run on pooled state.
func TestRepairRoundAllocs(t *testing.T) {
	g, oracles := arbBatchFixture(t, 6)
	measure := func(mode PlaneMode) float64 {
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 1, Plane: mode})
		defer r.Close()
		ls := graph.NewLengthStore(g, 1)
		res := r.MinTrees(ls, nil) // warm up the rows
		bumpTreeEdges(ls, res[0].Tree)
		round := 0
		return testing.AllocsPerRun(50, func() {
			res := r.MinTrees(ls, nil)
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			bumpTreeEdges(ls, res[round%len(res)].Tree)
			round++
		})
	}
	off := measure(PlaneOff)
	if got := measure(PlaneSubtree); got > off {
		t.Fatalf("%v rounds allocate %.1f/round vs %.1f/round with the plane off — repair state is not pooled", PlaneSubtree, got, off)
	}
}
