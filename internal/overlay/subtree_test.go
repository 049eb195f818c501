package overlay

import (
	"fmt"
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
				if pl.valid[row] != pl.stamp || !pl.exact[row] {
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

// certifiedDirtyRows counts the rows a full batch (nil ids) on r would find
// dirty with the subtree-repair certificate holding — the rows offered to
// the repair gate — using the classifier's own predicates, which read but
// never write runner state.
func certifiedDirtyRows(r *BatchRunner, ls *graph.LengthStore) int {
	if r.plane == nil {
		return 0
	}
	n := 0
	for row := 0; row < r.plane.NumSources(); row++ {
		fill := r.plane.FillEpoch(row)
		if fill < 0 || fill == ls.Epoch() || !ls.MonotoneSince(fill) ||
			r.treeUntouched(ls, row) || r.rowServiceable(ls, row) {
			continue
		}
		if r.plane.exact[row] && ls.AllPositive() && scaleSafe(ls.MinLengthLB(), r.plane.maxDist[row]) {
			n++
		}
	}
	return n
}

// gateAttempts returns how many repair outcomes a gate recorded between two
// snapshots: note adds one try per attempt, and halves the counts when tries
// reaches repairWindow+1 (at most once between the snapshots here, since a
// batch makes far fewer attempts than that).
func gateAttempts(before, after repairGate) int {
	if after.tries >= before.tries {
		return after.tries - before.tries
	}
	return repairWindow + 1 - before.tries + after.tries - (repairWindow+1)/2
}

// TestRepairSelectorFollowsOutcomes pins the plane's choice between subtree
// repair and full refill. Every round runs a full batch and then bumps
// either every session's tree (the MaxConcurrentFlow phase shape, where
// most repairs bail) or one tree (the MaxFlow shape, where most hold).
// Every result must equal a direct MinTree call, and the decisions must not
// depend on the worker count.
func TestRepairSelectorFollowsOutcomes(t *testing.T) {
	const rounds = 40
	type outcome struct {
		certified, attempts []int
		m                   PlaneStats
		gate                repairGate
	}
	run := func(workers int, bumpAll func(round int) bool) outcome {
		g, oracles := arbBatchFixture(t, 7)
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers})
		defer r.Close()
		ls := graph.NewLengthStore(g, 1)
		var o outcome
		for round := 0; round < rounds; round++ {
			c, before := certifiedDirtyRows(r, ls), r.gate
			results := r.MinTrees(ls, nil)
			o.certified = append(o.certified, c)
			o.attempts = append(o.attempts, gateAttempts(before, r.gate))
			for i, res := range results {
				want, err := oracles[i].MinTree(ls.Values())
				if err != nil || res.Err != nil {
					t.Fatalf("workers=%d round %d oracle %d: %v / %v", workers, round, i, res.Err, err)
				}
				if res.Tree.Key() != want.Key() {
					t.Fatalf("workers=%d round %d oracle %d: tree differs from direct call", workers, round, i)
				}
			}
			if bumpAll(round) {
				for _, res := range results {
					bumpTreeEdges(ls, res.Tree)
				}
			} else {
				bumpTreeEdges(ls, results[round%len(results)].Tree)
			}
		}
		o.m, o.gate = r.Metrics(), r.gate
		return o
	}
	sum := func(xs []int) int {
		total := 0
		for _, x := range xs {
			total += x
		}
		return total
	}

	t.Run("every-tree-bumped", func(t *testing.T) {
		o := run(2, func(int) bool { return true })
		// After the first failing batches the gate refills and only probes.
		cert, att := sum(o.certified[rounds/2:]), sum(o.attempts[rounds/2:])
		if cert == 0 || att > cert/6 {
			t.Fatalf("second half: %d attempts on %d certified dirty rows, want about 1/8 (%+v)", att, cert, o.gate)
		}
		if att == 0 {
			t.Fatalf("second half: the gate stopped probing (%d certified rows)", cert)
		}
	})
	t.Run("one-tree-bumped", func(t *testing.T) {
		o := run(2, func(int) bool { return false })
		for round := range o.certified {
			if o.attempts[round] != o.certified[round] {
				t.Fatalf("round %d: %d attempts on %d certified dirty rows, want all", round, o.attempts[round], o.certified[round])
			}
		}
		if sum(o.certified) == 0 || o.m.SubtreeRepaired == 0 {
			t.Fatalf("no certified dirty row was repaired (%+v)", o.m)
		}
	})
	t.Run("workers", func(t *testing.T) {
		// Switch shapes halfway, so the gate runs through both states.
		shape := func(round int) bool { return round < rounds/2 }
		a, b := run(1, shape), run(4, shape)
		if a.m != b.m || a.gate != b.gate || fmt.Sprint(a.attempts) != fmt.Sprint(b.attempts) {
			t.Fatalf("workers 1 vs 4 diverge:\n%+v %+v %v\n%+v %+v %v", a.m, a.gate, a.attempts, b.m, b.gate, b.attempts)
		}
	})
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
				if pl.valid[row] != pl.stamp || !pl.exact[row] {
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
