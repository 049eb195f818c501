package overlay

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/routing"
)

// batchFixture builds a small ring-of-cliques graph with several overlapping
// sessions and one fixed oracle per session.
func batchFixture(t testing.TB, k int) (*graph.Graph, []TreeOracle) {
	t.Helper()
	const n = 24
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n, 10); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(i, (i+5)%n, 7); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	var members []graph.NodeID
	for i := 0; i < n; i++ {
		members = append(members, i)
	}
	rt := routing.NewIPRoutes(g, members)
	oracles := make([]TreeOracle, k)
	for i := 0; i < k; i++ {
		s, err := NewSession(i, []graph.NodeID{i % n, (i + 7) % n, (i + 13) % n, (i + 18) % n}, 1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewFixedOracle(g, rt, s)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	return g, oracles
}

// lengthsFor varies edge lengths deterministically so different batches see
// different length functions.
func lengthsFor(g *graph.Graph, round int) graph.Lengths {
	d := graph.NewLengths(g, 1)
	for e := range d {
		d[e] = 1 + float64((e*7+round*3)%11)/10
	}
	return d
}

// TestBatchMatchesDirectMinTree checks every slot of a full batch against a
// direct MinTree call, for several worker counts and length functions.
func TestBatchMatchesDirectMinTree(t *testing.T) {
	g, oracles := batchFixture(t, 6)
	for _, workers := range []int{1, 2, 8} {
		r := NewBatchRunner(g, oracles, workers)
		for round := 0; round < 3; round++ {
			d := lengthsFor(g, round)
			ls := graph.NewLengthStoreFrom(d)
			results := r.MinTreesLen(ls, nil)
			if len(results) != len(oracles) {
				t.Fatalf("workers=%d: %d results for %d oracles", workers, len(results), len(oracles))
			}
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("workers=%d oracle %d: %v", workers, i, res.Err)
				}
				want, err := oracles[i].MinTree(d)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tree.Key() != want.Key() {
					t.Fatalf("workers=%d oracle %d: tree differs from direct call", workers, i)
				}
				if res.Len != want.LengthUnder(d) {
					t.Fatalf("workers=%d oracle %d: len %v != %v", workers, i, res.Len, want.LengthUnder(d))
				}
			}
			// The length-oblivious variant must return the same trees with
			// Len left zero.
			for i, res := range r.MinTrees(ls, nil) {
				if res.Len != 0 {
					t.Fatalf("workers=%d oracle %d: MinTrees filled Len %v", workers, i, res.Len)
				}
				want, err := oracles[i].MinTree(d)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tree.Key() != want.Key() {
					t.Fatalf("workers=%d oracle %d: MinTrees tree differs", workers, i)
				}
			}
		}
		r.Close()
		r.Close() // idempotent
	}
}

// TestBatchSubsetEvaluation checks id-list batches: slots must align with the
// id list, not the oracle indices, and shrinking pending sets (the MCF round
// pattern) must keep working.
func TestBatchSubsetEvaluation(t *testing.T) {
	g, oracles := batchFixture(t, 8)
	for _, workers := range []int{1, 3} {
		r := NewBatchRunner(g, oracles, workers)
		d := lengthsFor(g, 1)
		ls := graph.NewLengthStoreFrom(d)
		for _, ids := range [][]int{{5, 1, 6}, {7}, {0, 2, 3, 4, 5, 6, 7, 1}} {
			results := r.MinTrees(ls, ids)
			if len(results) != len(ids) {
				t.Fatalf("workers=%d: %d results for ids %v", workers, len(results), ids)
			}
			for pos, i := range ids {
				if results[pos].Err != nil {
					t.Fatal(results[pos].Err)
				}
				want, err := oracles[i].MinTree(d)
				if err != nil {
					t.Fatal(err)
				}
				if results[pos].Tree.Key() != want.Key() {
					t.Fatalf("workers=%d ids=%v slot %d: wrong oracle's tree", workers, ids, pos)
				}
				if results[pos].Tree.SessionID != i {
					t.Fatalf("workers=%d: slot %d carries session %d, want %d", workers, pos, results[pos].Tree.SessionID, i)
				}
			}
		}
		r.Close()
	}
}

// TestBatchAddOracleGrowsDynamicRunner pins the AddOracle contract the
// warm-start allocator relies on: a runner that starts empty and grows
// between batches must return, for every batch over the grown set, exactly
// what a runner built with the full set up front returns — with the plane on
// and off, across worker counts, and with batches interleaved between the
// AddOracle calls so stored plane rows survive the growth.
// The pool keeps its requested size, and the plane appears with the first
// plane-aware oracle, never before.
func TestBatchAddOracleGrowsDynamicRunner(t *testing.T) {
	g, fixed := batchFixture(t, 6)
	// A couple of plane-aware (arbitrary) oracles exercise the plane-target
	// merge in AddOracle; the fixed ones the plane-oblivious path.
	oracles := append([]TreeOracle(nil), fixed[:4]...)
	for i := 4; i < 6; i++ {
		s, err := NewSession(i, []graph.NodeID{i, (i + 7) % 24, (i + 13) % 24, (i + 18) % 24}, 1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewArbitraryOracle(g, s)
		if err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, o)
	}
	for _, plane := range planeModes {
		for _, workers := range []int{1, 3} {
			static := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers, Plane: plane})
			dyn := NewBatchRunnerOpts(g, nil, BatchOptions{Workers: workers, Plane: plane})
			if dyn.Workers() != workers {
				t.Fatalf("empty runner clamped its pool to %d", dyn.Workers())
			}
			for i, o := range oracles {
				if id := dyn.AddOracle(o); id != i {
					t.Fatalf("AddOracle returned id %d, want %d", id, i)
				}
				if wantPlane := plane != PlaneOff && i >= 4; (dyn.plane != nil) != wantPlane {
					t.Fatalf("plane=%v after %d adds: has plane %v, want %v", plane, i+1, dyn.plane != nil, wantPlane)
				}
				// Batch over the grown prefix between arrivals, under fresh
				// lengths, and compare slot by slot.
				d := lengthsFor(g, i)
				got := dyn.MinTreesLen(graph.NewLengthStoreFrom(d), nil)
				want := static.MinTreesLen(graph.NewLengthStoreFrom(d), intRange(i+1))
				if len(got) != i+1 {
					t.Fatalf("plane=%v workers=%d: %d results after %d adds", plane, workers, len(got), i+1)
				}
				for j := range got {
					if got[j].Err != nil || want[j].Err != nil {
						t.Fatalf("slot %d: %v / %v", j, got[j].Err, want[j].Err)
					}
					if got[j].Tree.Key() != want[j].Tree.Key() || got[j].Len != want[j].Len {
						t.Fatalf("plane=%v workers=%d adds=%d slot %d: grown runner diverged from static",
							plane, workers, i+1, j)
					}
				}
			}
			dyn.Close()
			static.Close()
		}
	}
}

func intRange(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestBatchWorkersResolved pins the pool-size contract: <=0 means GOMAXPROCS,
// and a pool larger than the oracle set keeps its requested size (idle
// workers cost nothing, and the set may grow through AddOracle).
func TestBatchWorkersResolved(t *testing.T) {
	g, oracles := batchFixture(t, 3)
	auto := NewBatchRunner(g, oracles, 0)
	defer auto.Close()
	if w := auto.Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("auto workers = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	big := NewBatchRunner(g, oracles, 64)
	defer big.Close()
	if w := big.Workers(); w != 64 {
		t.Fatalf("oversized pool = %d, want the requested 64", w)
	}
	r := NewBatchRunner(g, oracles, 1)
	if r.Workers() != 1 {
		t.Fatalf("workers=1 resolved to %d", r.Workers())
	}
	r.Close() // one-worker runner: no helpers to stop
}

// TestBatchResultSliceReusedAcrossCalls pins the BatchResult aliasing
// contract from both sides, so the consume-then-rebatch misuse pattern is
// caught the day either half changes silently. (1) The runner reuses the
// result slice: holding it across a rebatch observes the next batch's slots,
// so a caller that stores the slice and reads it later gets wrong sessions.
// (2) The trees themselves are never recycled: anything extracted from a
// batch before rebatching stays valid and bitwise intact.
func TestBatchResultSliceReusedAcrossCalls(t *testing.T) {
	g, oracles := batchFixture(t, 8)
	r := NewBatchRunner(g, oracles, 1)
	defer r.Close()
	d := lengthsFor(g, 0)
	ls := graph.NewLengthStoreFrom(d)

	first := r.MinTrees(ls, []int{0, 1})
	// Consume properly: copy the tree pointers and their canonical keys out.
	firstTrees := []*Tree{first[0].Tree, first[1].Tree}
	firstKeys := []string{first[0].Tree.Key(), first[1].Tree.Key()}

	second := r.MinTrees(ls, []int{2, 3})
	if &first[0] != &second[0] {
		t.Fatal("result slices no longer alias — the BatchResult reuse contract changed; update its docs and this test")
	}
	// The held slice now describes batch two, not batch one: exactly the
	// misuse this test exists to catch.
	if first[0].Tree.SessionID != 2 || first[1].Tree.SessionID != 3 {
		t.Fatalf("stale slice reads sessions %d,%d — expected it to be overwritten with 2,3",
			first[0].Tree.SessionID, first[1].Tree.SessionID)
	}
	// But trees extracted before the rebatch are untouched.
	for i, tree := range firstTrees {
		if tree.SessionID != i {
			t.Fatalf("extracted tree %d re-stamped to session %d", i, tree.SessionID)
		}
		if tree.Key() != firstKeys[i] {
			t.Fatalf("extracted tree %d mutated by rebatch", i)
		}
		want, err := oracles[i].MinTree(d)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Key() != want.Key() {
			t.Fatalf("extracted tree %d differs from a fresh direct call", i)
		}
	}
}

// TestBatchOracleAllocs is the allocation regression gate for the batch
// oracle hot path: a sequential full-batch evaluation may allocate only the
// returned trees (pairs, routes, struct, use — a handful of allocations per
// oracle), never per-call scratch.
func TestBatchOracleAllocs(t *testing.T) {
	g, oracles := batchFixture(t, 6)
	r := NewBatchRunner(g, oracles, 1)
	defer r.Close()
	d := lengthsFor(g, 0)
	ls := graph.NewLengthStoreFrom(d)
	ids := []int{0, 1, 2, 3, 4, 5}
	r.MinTrees(ls, ids) // warm up scratch growth
	avg := testing.AllocsPerRun(50, func() {
		res := r.MinTrees(ls, ids)
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	perOracle := avg / float64(len(ids))
	if perOracle > 8 {
		t.Fatalf("batch oracle path allocates %.1f allocs/oracle (avg %.1f/batch), want <= 8", perOracle, avg)
	}
}

// mixedBatchFixture alternates fixed-route oracles (even ids) with
// arbitrary-routing ones (odd ids) over one graph, so batches exercise both
// the plane's fill stage and the plane-oblivious eval path. The arbitrary
// sessions share hot members, as in arbBatchFixture, so rows are reused.
func mixedBatchFixture(t testing.TB, k int) (*graph.Graph, []TreeOracle) {
	t.Helper()
	g, oracles := batchFixture(t, k)
	for i := 1; i < k; i += 2 {
		members := []graph.NodeID{i % 3, (i % 3) + 1, (i + 11) % 24, (i + 17) % 24}
		s, err := NewSession(i, dedupNodes(members), 1)
		if err != nil {
			t.Fatal(err)
		}
		if oracles[i], err = NewArbitraryOracle(g, s); err != nil {
			t.Fatal(err)
		}
	}
	return g, oracles
}

// sameResults fails unless got and want agree slot by slot, bit for bit.
func sameResults(t *testing.T, label string, got, want []BatchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j].Err != nil || want[j].Err != nil {
			t.Fatalf("%s slot %d: %v / %v", label, j, got[j].Err, want[j].Err)
		}
		if got[j].Tree.SessionID != want[j].Tree.SessionID || got[j].Tree.Key() != want[j].Tree.Key() ||
			math.Float64bits(got[j].Len) != math.Float64bits(want[j].Len) {
			t.Fatalf("%s slot %d: result differs from the reference runner", label, j)
		}
	}
}

// TestBatchClaimLoopMatchesSequential pins the claim-loop fan-out: whichever
// participant (caller or helper) claims a job, a batch must equal what a
// one-worker runner returns, bit for bit — trees, lengths and every plane
// row the fill stage wrote — at batch sizes around the pool size (1, W−1, W,
// W+1, 3W+1; W−1 is the empty batch at W=1) over id subsets, in every plane
// mode, through both entry points, and across 50 batches on the same runner
// while the ledger grows between them. Run under -race it also checks the
// happens-before edges of the wake tokens and the stage barrier.
func TestBatchClaimLoopMatchesSequential(t *testing.T) {
	g, oracles := mixedBatchFixture(t, 29)
	for _, mode := range planeModes {
		for _, workers := range []int{1, 2, 8} {
			ref := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 1, Plane: mode})
			r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers, Plane: mode})
			if cap(r.wake) != workers-1 {
				t.Fatalf("workers=%d: %d wake slots, want one per helper", workers, cap(r.wake))
			}
			sizes := []int{1, workers - 1, workers, workers + 1, 3*workers + 1}
			ls := graph.NewLengthStore(g, 1)
			for batch := 0; batch < 50; batch++ {
				// Distinct ids (stride 7 is a unit mod 29), rotated per batch.
				ids := make([]int, sizes[batch%len(sizes)])
				for j := range ids {
					ids[j] = (batch*5 + j*7) % len(oracles)
				}
				if batch%10 == 9 {
					ids = nil // the whole set
				}
				var got, want []BatchResult
				if batch%2 == 0 {
					got, want = r.MinTreesLen(ls, ids), ref.MinTreesLen(ls, ids)
				} else {
					got, want = r.MinTrees(ls, ids), ref.MinTrees(ls, ids)
				}
				label := fmt.Sprintf("%v workers=%d batch %d", mode, workers, batch)
				sameResults(t, label, got, want)
				if r.plane != nil {
					for _, o := range oracles {
						po, ok := o.(PlaneOracle)
						if !ok {
							continue
						}
						for _, s := range po.PlaneSources() {
							gd, gp, gok := r.plane.Lookup(s)
							wd, wp, wok := ref.plane.Lookup(s)
							if gok != wok || !reflect.DeepEqual(gp, wp) {
								t.Fatalf("%s: plane row %d differs (live %v/%v)", label, s, gok, wok)
							}
							for v := range gd {
								if math.Float64bits(gd[v]) != math.Float64bits(wd[v]) {
									t.Fatalf("%s: plane row %d dist[%d] differs", label, s, v)
								}
							}
						}
					}
				}
				if len(got) > 0 {
					bumpTreeEdges(ls, got[batch%len(got)].Tree)
				}
			}
			if r.Metrics() != ref.Metrics() {
				t.Fatalf("%v workers=%d: plane metrics %+v, want %+v", mode, workers, r.Metrics(), ref.Metrics())
			}
			r.Close()
			ref.Close()
		}
	}
}

// TestBatchReleasedSlots pins the departed-oracle contract: a runner built
// over an oracle list with nil (departed) slots derives its plane targets
// from the live oracles only, a runner that Releases ids drops the oracle,
// and both keep answering batches over the live ids exactly like a runner
// that never lost an oracle.
func TestBatchReleasedSlots(t *testing.T) {
	g, oracles := mixedBatchFixture(t, 12)
	gone := []int{1, 4, 7}
	withNil := append([]TreeOracle(nil), oracles...)
	for _, id := range gone {
		withNil[id] = nil
	}
	var live []int
	var compact []TreeOracle
	for i, o := range withNil {
		if o != nil {
			live = append(live, i)
			compact = append(compact, o)
		}
	}
	for _, mode := range planeModes {
		for _, workers := range []int{1, 3} {
			opts := BatchOptions{Workers: workers, Plane: mode}
			full := NewBatchRunnerOpts(g, oracles, opts)
			lazy := NewBatchRunnerOpts(g, withNil, opts)
			released := NewBatchRunnerOpts(g, oracles, opts)
			compacted := NewBatchRunnerOpts(g, compact, opts)
			if !reflect.DeepEqual(lazy.targets, compacted.targets) {
				t.Fatalf("%v: targets over nil slots %v, want the live oracles' %v", mode, lazy.targets, compacted.targets)
			}
			ls := graph.NewLengthStore(g, 1)
			released.MinTrees(ls, nil) // stage rows for every oracle
			for _, id := range gone {
				released.Release(id)
				if released.oracles[id] != nil {
					t.Fatalf("%v: Release(%d) kept the oracle", mode, id)
				}
			}
			for round := 0; round < 6; round++ {
				want := full.MinTreesLen(ls, live)
				sameResults(t, mode.String()+" lazy", lazy.MinTreesLen(ls, live), want)
				sameResults(t, mode.String()+" released", released.MinTreesLen(ls, live), want)
				bumpTreeEdges(ls, want[round%len(want)].Tree)
			}
			for _, r := range []*BatchRunner{full, lazy, released, compacted} {
				r.Close()
			}
		}
	}
}

// BenchmarkBatchMinTrees measures one full sequential batch over the
// fixture, for the bench-smoke tier.
func BenchmarkBatchMinTrees(b *testing.B) {
	g, oracles := batchFixture(b, 6)
	r := NewBatchRunner(g, oracles, 1)
	defer r.Close()
	d := lengthsFor(g, 0)
	ls := graph.NewLengthStoreFrom(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.MinTrees(ls, nil)
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}
