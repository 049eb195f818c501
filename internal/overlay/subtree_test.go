package overlay

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
	"overcast/internal/routing"
	"overcast/internal/topology"
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
// dirty with the subtree-repair certificate holding, split by journal window:
// short rows (fewer than n/2 touches since their fill) and long rows. It
// uses the classifier's own predicates, which read but never write runner
// state.
func certifiedDirtyRows(r *BatchRunner, ls *graph.LengthStore) (short, long int) {
	if r.plane == nil {
		return 0, 0
	}
	for row := 0; row < r.plane.NumSources(); row++ {
		switch {
		case !certifiedDirty(r, ls, row):
		case 2*ls.TouchedCount(r.plane.FillEpoch(row)) < graph.Epoch(r.g.NumNodes()):
			short++
		default:
			long++
		}
	}
	return short, long
}

// certifiedDirty reports whether a batch referencing row would find it
// dirty with the subtree-repair certificate holding, whatever its window.
func certifiedDirty(r *BatchRunner, ls *graph.LengthStore, row int) bool {
	fill := r.plane.FillEpoch(row)
	return fill >= 0 && fill != ls.Epoch() && ls.MonotoneSince(fill) &&
		!r.treeUntouched(ls, row) && !r.rowServiceable(ls, row) &&
		r.plane.exact[row] && ls.AllPositive() && scaleSafe(ls.MinLengthLB(), r.plane.maxDist[row])
}

// TestRepairWindowRule pins the plane's choice between subtree repair and
// full refill: a certified dirty row attempts repair iff its journal window
// holds fewer than n/2 touches. Every round runs a full batch and then bumps
// either every session's tree (the MaxConcurrentFlow phase shape, whose
// windows are long) or one tree (the MaxFlow shape, whose windows are
// short). Every result must equal a direct MinTree call, and the decisions
// must not depend on the worker count.
func TestRepairWindowRule(t *testing.T) {
	const rounds = 40
	type outcome struct {
		short, long, attempts []int
		m                     PlaneStats
	}
	run := func(workers int, bumpAll func(round int) bool) outcome {
		g, oracles := arbBatchFixture(t, 7)
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers})
		defer r.Close()
		ls := graph.NewLengthStore(g, 1)
		var o outcome
		for round := 0; round < rounds; round++ {
			short, long := certifiedDirtyRows(r, ls)
			results := r.MinTrees(ls, nil)
			o.short = append(o.short, short)
			o.long = append(o.long, long)
			o.attempts = append(o.attempts, len(r.toRepair))
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
		o.m = r.Metrics()
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
		if sum(o.long) == 0 || sum(o.attempts) != 0 {
			t.Fatalf("%d attempts on %d long-window certified rows, want 0 on > 0 (%+v)", sum(o.attempts), sum(o.long), o.m)
		}
	})
	t.Run("one-tree-bumped", func(t *testing.T) {
		o := run(2, func(int) bool { return false })
		for round := range o.short {
			if o.attempts[round] != o.short[round] {
				t.Fatalf("round %d: %d attempts on %d short-window certified rows, want all", round, o.attempts[round], o.short[round])
			}
		}
		if sum(o.short) == 0 || o.m.SubtreeRepaired == 0 {
			t.Fatalf("no short-window certified row was repaired (%+v)", o.m)
		}
	})
	t.Run("workers", func(t *testing.T) {
		// Switch shapes halfway, so both windows occur.
		shape := func(round int) bool { return round < rounds/2 }
		a, b := run(1, shape), run(4, shape)
		if a.m != b.m || fmt.Sprint(a.attempts) != fmt.Sprint(b.attempts) {
			t.Fatalf("workers 1 vs 4 diverge:\n%+v %v\n%+v %v", a.m, a.attempts, b.m, b.attempts)
		}
	})
}

// TestSubtreeRepairSparseBatches drives subtree repair through batches that
// name a rotating subset of oracles, so rows sit out several batches and
// their dirty roots must come from a journal window spanning all of them.
// Most batches bump one edge of a routed tree, so windows over several
// batches stay below n/2 touches; some follow a scatter of 2n bumps, and
// one follows a burst that overruns graph.JournalWindow. Every result must
// equal a direct MinTree call and every exact validated row a fresh
// ShortestPathsInto, bitwise, and no row with a window of n/2 or more may
// attempt repair. Non-vacuity: a subtree repair succeeds on a window
// spanning several batches, a certified dirty row with a window of at
// least n/2 is refilled, and a row whose window the journal no longer
// covers is refilled.
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
		var spanRepairs, longRefills, unknownRefills int
		for round := 0; round < 120; round++ {
			// A rotating window of 2..4 consecutive oracle ids.
			ids := make([]int, 2+round%3)
			for j := range ids {
				ids[j] = (round + 2*j) % k
			}
			pl := r.plane
			type window struct {
				fill               graph.Epoch
				covered, certified bool
			}
			before := map[graph.NodeID]window{}
			if pl != nil {
				for row := 0; row < pl.NumSources(); row++ {
					fill := pl.FillEpoch(row)
					if fill < 0 {
						continue
					}
					covered := ls.ForEachTouched(fill, func(graph.EdgeID) bool { return true })
					before[pl.Source(row)] = window{fill, covered, certifiedDirty(r, ls, row)}
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
				if 2*(cur-w.fill) >= graph.Epoch(n) {
					t.Fatalf("workers=%d round %d: row %d attempted repair on a window of %d touches (n = %d)",
						workers, round, row32, cur-w.fill, n)
				}
				if r.repairOK[kk] && round-batchOf[w.fill] >= 3 {
					spanRepairs++
				}
			}
			for _, row32 := range r.toFill {
				w, ok := before[pl.Source(int(row32))]
				if ok && !w.covered {
					unknownRefills++
				}
				if ok && w.certified && 2*(cur-w.fill) >= graph.Epoch(n) {
					longRefills++
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
				use := results[rng.Intn(len(results))].Tree.Use()
				ls.Bump(use[rng.Intn(len(use))].Edge, 1.05)
			}
		}
		r.Close()
		if spanRepairs == 0 || longRefills == 0 || unknownRefills == 0 {
			t.Fatalf("workers=%d: repairs across >=3 batches %d, certified refills on windows >= n/2 %d, refills from unknown windows %d; want all > 0 (%+v)",
				workers, spanRepairs, longRefills, unknownRefills, r.Metrics())
		}
	}
}

// classifyFuzzSessions and classifyFuzzRounds size FuzzPlaneClassify: the
// sessions of its fixture, and the most rounds one input drives.
const (
	classifyFuzzSessions = 6
	classifyFuzzRounds   = 32
)

// FuzzPlaneClassify drives a persistent runner's per-row classification
// (skip, read-path walk, subtree repair, refill) on a 24-node Waxman graph
// with six overlapping arbitrary-routing sessions. Each round takes four
// bytes: the batch (a bitmask of sessions, rotated by the top two bits; an
// empty mask runs them all), which results' trees to bump (bit 6: one edge
// of each instead of all), the bump factor in (1, 2], and a byte below 16
// that halves one edge with Set (a non-monotone window). After every batch
// each result must equal a direct MinTree call, and every exact validated
// row a fresh ShortestPathsInto, bitwise.
func FuzzPlaneClassify(f *testing.F) {
	net, err := topology.Waxman(topology.DefaultWaxman(24), rng.New(3))
	if err != nil {
		f.Fatal(err)
	}
	g := net.Graph
	n, m := g.NumNodes(), g.NumEdges()
	oracles := make([]TreeOracle, classifyFuzzSessions)
	for i := range oracles {
		members := []graph.NodeID{i % 3, i%3 + 1, (i + 11) % n, (i + 17) % n}
		s, err := NewSession(i, dedupNodes(members), 1)
		if err != nil {
			f.Fatal(err)
		}
		if oracles[i], err = NewArbitraryOracle(g, s); err != nil {
			f.Fatal(err)
		}
	}
	// Seeds replay TestSubtreeRepairSparseBatches' shape (rotating batches
	// of 2..4 sessions, one edge of one routed tree bumped per round; seed 7
	// adds a shrink every ninth round) and the phase-loop shape (full
	// batches, every tree bumped).
	f.Add([]byte{})
	for _, seed := range []int64{5, 7} {
		rnd := rand.New(rand.NewSource(seed))
		var data []byte
		for round := 0; round < classifyFuzzRounds; round++ {
			size := 2 + round%3
			var mask byte
			for j := 0; j < size; j++ {
				mask |= 1 << ((round + 2*j) % classifyFuzzSessions)
			}
			shrink := byte(255)
			if seed == 7 && round%9 == 8 {
				shrink = byte(rnd.Intn(16))
			}
			data = append(data, mask, 1<<rnd.Intn(size)|0x40, byte(rnd.Intn(256)), shrink)
		}
		f.Add(data)
	}
	f.Add(bytes.Repeat([]byte{0, 0x3f, 12, 255}, classifyFuzzRounds/2))

	sp := routing.NewDijkstraScratch(g)
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 1})
		defer r.Close()
		ls := graph.NewLengthStore(g, 1)
		for round := 0; round < classifyFuzzRounds && 4*round+3 < len(data); round++ {
			a, b, c, s := data[4*round], data[4*round+1], data[4*round+2], data[4*round+3]
			var ids []int
			for j := 0; j < classifyFuzzSessions; j++ {
				if i := (int(a>>6) + j) % classifyFuzzSessions; a&(1<<i) != 0 {
					ids = append(ids, i)
				}
			}
			results := r.MinTreesLen(ls, ids)
			for j, res := range results {
				i := j
				if ids != nil {
					i = ids[j]
				}
				want, err := oracles[i].MinTree(ls.Values())
				if err != nil || res.Err != nil {
					t.Fatalf("round %d oracle %d: %v / %v", round, i, res.Err, err)
				}
				if res.Tree.Key() != want.Key() ||
					math.Float64bits(res.Len) != math.Float64bits(want.LengthUnder(ls.Values())) {
					t.Fatalf("round %d oracle %d: result differs from direct call", round, i)
				}
			}
			pl := r.plane
			for row := 0; row < pl.NumSources(); row++ {
				if pl.valid[row] != pl.stamp || !pl.exact[row] {
					continue
				}
				sp.ShortestPathsInto(g, pl.Source(row), ls.Values(), dist, parent)
				for v := range dist {
					if math.Float64bits(dist[v]) != math.Float64bits(pl.dists[row][v]) || parent[v] != pl.parents[row][v] {
						t.Fatalf("round %d row %d (src %d): node %d is (%.17g, %d), fresh fill (%.17g, %d)",
							round, row, pl.Source(row), v, pl.dists[row][v], pl.parents[row][v], dist[v], parent[v])
					}
				}
			}
			factor := 1 + (float64(c)+1)/256
			for j, res := range results {
				if b&(1<<j) == 0 {
					continue
				}
				use := res.Tree.Use()
				if b&0x40 != 0 {
					use = use[int(c)%len(use):][:1]
				}
				for _, u := range use {
					ls.Bump(u.Edge, factor)
				}
			}
			if s < 16 {
				e := graph.EdgeID((int(s)*m/16 + int(c)) % m)
				ls.Set(e, ls.At(e)/2)
			}
		}
	})
}
