package overlay

import (
	"math/rand"
	"testing"

	"overcast/internal/graph"
)

// liveRefs collects the deduplicated live entry set of p's inverted index:
// every (edge, row, child) whose entry self-validates against the stored
// parent arrays. Dead and duplicate entries are ignored, mirroring what
// MarkTouched can ever act on.
func liveRefs(p *Plane) map[[3]int32]bool {
	out := map[[3]int32]bool{}
	for e, refs := range p.idx.edgeRows {
		for _, ref := range refs {
			if p.parents[ref.row][ref.child] == graph.EdgeID(e) {
				out[[3]int32{int32(e), ref.row, ref.child}] = true
			}
		}
	}
	return out
}

// TestInvertedIndexMatchesRebuild drives a runner through mixed rounds
// (fills, skips, subtree repairs, serviceable demotions) and, at every round,
// checks the incrementally maintained index against a from-scratch rebuild:
// the live deduplicated entry sets must be equal. Completeness (no live
// parent edge missing from the index) is the soundness half — a missing
// entry would silently skip a dirty row; the rebuild provides exactly the
// live set, so set equality covers both directions.
func TestInvertedIndexMatchesRebuild(t *testing.T) {
	g, oracles := arbBatchFixture(t, 7)
	r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 2})
	defer r.Close()
	ls := graph.NewLengthStore(g, 1)
	rnd := rand.New(rand.NewSource(99))
	for round := 0; round < 60; round++ {
		results := r.MinTreesLen(ls, nil)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d oracle %d: %v", round, i, res.Err)
			}
		}
		p := r.plane
		got := liveRefs(p)

		// Reference: the live set derived straight from the parent arrays.
		want := map[[3]int32]bool{}
		for row := range p.sources {
			for child, e := range p.parents[row] {
				if e >= 0 {
					want[[3]int32{int32(e), int32(row), int32(child)}] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: maintained index has %d live entries, parent arrays imply %d", round, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("round %d: live entry edge=%d row=%d child=%d missing from maintained index", round, k[0], k[1], k[2])
			}
		}

		// A from-scratch rebuild must reproduce the same live set (and the
		// runner must keep working on the rebuilt index afterwards).
		p.rebuildIndex()
		rebuilt := liveRefs(p)
		if len(rebuilt) != len(want) {
			t.Fatalf("round %d: rebuilt index has %d live entries, want %d", round, len(rebuilt), len(want))
		}
		for k := range want {
			if !rebuilt[k] {
				t.Fatalf("round %d: rebuilt index lost entry edge=%d row=%d child=%d", round, k[0], k[1], k[2])
			}
		}

		if rnd.Intn(4) > 0 {
			bumpTreeEdges(ls, results[rnd.Intn(len(results))].Tree)
		} else {
			for j := 0; j < 1+rnd.Intn(5); j++ {
				ls.Bump(rnd.Intn(g.NumEdges()), 1+rnd.Float64()*0.3)
			}
		}
	}
	m := r.Metrics()
	if m.PlaneSubtreeRepaired == 0 {
		t.Fatalf("fixture never took the subtree path — the interesting index writes were not exercised (%+v)", m)
	}
}
