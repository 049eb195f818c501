package overlay

import (
	"testing"

	"overcast/internal/graph"
)

// arbBatchFixture builds arbitrary-routing oracles over the ring-of-cliques
// graph with deliberately overlapping member sets (nodes 0..5 appear in many
// sessions), the regime the shared SSSP plane deduplicates.
func arbBatchFixture(t testing.TB, k int) (*graph.Graph, []TreeOracle) {
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
	oracles := make([]TreeOracle, k)
	for i := 0; i < k; i++ {
		// Hot members i%3 and (i%3)+1 recur across sessions; the tail member
		// varies so sessions are not identical.
		members := []graph.NodeID{i % 3, (i % 3) + 1, (i + 11) % n, (i + 17) % n}
		s, err := NewSession(i, dedupNodes(members), 1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewArbitraryOracle(g, s)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	return g, oracles
}

// dedupNodes drops duplicate node ids while keeping first-appearance order
// (session members must be distinct).
func dedupNodes(in []graph.NodeID) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestPlaneBatchMatchesDirectMinTree pins the tentpole invariant at the
// overlay layer: for every worker count and plane mode, each batch slot must
// be bitwise identical to a direct MinTree call on the same
// lengths.
func TestPlaneBatchMatchesDirectMinTree(t *testing.T) {
	g, oracles := arbBatchFixture(t, 7)
	for _, mode := range planeModes {
		for _, workers := range []int{1, 2, 8} {
			r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: workers, Plane: mode})
			for round := 0; round < 3; round++ {
				d := lengthsFor(g, round)
				ls := graph.NewLengthStoreFrom(d)
				results := r.MinTreesLen(ls, nil)
				for i, res := range results {
					if res.Err != nil {
						t.Fatalf("plane=%v workers=%d oracle %d: %v", mode, workers, i, res.Err)
					}
					want, err := oracles[i].MinTree(d)
					if err != nil {
						t.Fatal(err)
					}
					if res.Tree.Key() != want.Key() {
						t.Fatalf("plane=%v workers=%d oracle %d: tree differs from direct call", mode, workers, i)
					}
					if res.Len != want.LengthUnder(d) {
						t.Fatalf("plane=%v workers=%d oracle %d: len %v != %v", mode, workers, i, res.Len, want.LengthUnder(d))
					}
				}
			}
			m := r.Metrics()
			if mode != PlaneOff {
				if m.Rounds != 3 || m.Sources == 0 || m.Requests <= m.Sources {
					t.Fatalf("plane=%v workers=%d: implausible metrics %+v", mode, workers, m)
				}
			} else if m != (PlaneStats{}) {
				t.Fatalf("plane disabled but metrics nonzero: %+v", m)
			}
			r.Close()
		}
	}
}

// TestMinTreeFromPlaneMatchesMinTreeWith drives the plane read path directly:
// a fully staged and filled plane must reproduce MinTreeWith bit for bit, and
// an unstaged member must fall back to the scratch path, not corrupt output.
func TestMinTreeFromPlaneMatchesMinTreeWith(t *testing.T) {
	g, oracles := arbBatchFixture(t, 4)
	d := lengthsFor(g, 1)
	pl := NewPlane(g)
	for _, o := range oracles {
		for _, m := range o.(*ArbitraryOracle).PlaneSources() {
			pl.Stage(m)
		}
	}
	pl.Fill(d, 2)
	sc := NewScratch(g)
	for i, o := range oracles {
		ao := o.(*ArbitraryOracle)
		want, err := ao.MinTreeWith(d, sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ao.MinTreeFromPlane(d, pl, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("oracle %d: plane tree differs from scratch tree", i)
		}
	}
	// After Reset nothing is staged: MinTreeFromPlane must still answer
	// correctly via its fallback.
	pl.Reset()
	ao := oracles[0].(*ArbitraryOracle)
	want, err := ao.MinTreeWith(d, sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ao.MinTreeFromPlane(d, pl, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != want.Key() {
		t.Fatal("fallback after Reset differs from scratch tree")
	}
}

// TestPlaneMixedOracleBatch checks a batch mixing fixed and arbitrary
// oracles: plane metrics must count only the plane-aware oracles' members,
// and the fixed slots must stay correct.
func TestPlaneMixedOracleBatch(t *testing.T) {
	g, fixedOracles := batchFixture(t, 3)
	_, arbOracles := arbBatchFixture(t, 3)
	mixed := append(append([]TreeOracle{}, fixedOracles...), arbOracles...)
	r := NewBatchRunnerOpts(g, mixed, BatchOptions{Workers: 2})
	defer r.Close()
	d := lengthsFor(g, 2)
	ls := graph.NewLengthStoreFrom(d)
	results := r.MinTrees(ls, nil)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("oracle %d: %v", i, res.Err)
		}
		want, err := mixed[i].MinTree(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tree.Key() != want.Key() {
			t.Fatalf("oracle %d: tree differs from direct call", i)
		}
	}
	wantRequests := 0
	for _, o := range arbOracles {
		wantRequests += len(o.(*ArbitraryOracle).PlaneSources())
	}
	m := r.Metrics()
	if m.Requests != wantRequests {
		t.Fatalf("plane requests %d, want %d (arbitrary members only)", m.Requests, wantRequests)
	}
	if m.Sources == 0 || m.Sources > wantRequests {
		t.Fatalf("plane sources %d outside (0, %d]", m.Sources, wantRequests)
	}
}

// TestPlaneOracleAllocs extends the batch allocation gate to the plane path:
// the arbitrary oracle's returned trees inherently allocate (route
// extraction builds fresh paths), but once row storage has grown, steady
// plane rounds must allocate no *more* than the plane-off path — per-round
// plane state (row staging, lookups, header slices) stays pooled.
func TestPlaneOracleAllocs(t *testing.T) {
	g, oracles := arbBatchFixture(t, 6)
	d := lengthsFor(g, 0)
	ls := graph.NewLengthStoreFrom(d)
	ids := []int{0, 1, 2, 3, 4, 5}
	measure := func(mode PlaneMode) float64 {
		r := NewBatchRunnerOpts(g, oracles, BatchOptions{Workers: 1, Plane: mode})
		defer r.Close()
		r.MinTrees(ls, ids) // warm up scratch + plane row growth
		return testing.AllocsPerRun(50, func() {
			res := r.MinTrees(ls, ids)
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		})
	}
	withPlane, without := measure(PlaneSubtree), measure(PlaneOff)
	if withPlane > without {
		t.Fatalf("plane rounds allocate %.1f/batch vs %.1f/batch without — per-round plane state is not pooled", withPlane, without)
	}
}

// TestPlaneMetricsRatios pins the derived-ratio semantics, including the
// never-fired edge cases.
func TestPlaneMetricsRatios(t *testing.T) {
	var zero PlaneStats
	if zero.Dedup() != 1 || zero.HitRate() != 0 {
		t.Fatalf("zero metrics: dedup %v hit %v", zero.Dedup(), zero.HitRate())
	}
	m := PlaneStats{Rounds: 2, Sources: 50, Requests: 200}
	if m.Dedup() != 4 {
		t.Fatalf("dedup %v, want 4", m.Dedup())
	}
	if m.HitRate() != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", m.HitRate())
	}
	if (PlaneStats{}).RepairRate() != 0 {
		t.Fatalf("zero metrics: repair rate %v", (PlaneStats{}).RepairRate())
	}
	if r := (PlaneStats{Skipped: 30, Repaired: 10}).RepairRate(); r != 0.75 {
		t.Fatalf("repair rate %v, want 0.75", r)
	}
	var sum PlaneStats
	sum.Merge(m)
	sum.Merge(PlaneStats{Rounds: 1, Sources: 10, Requests: 10, Skipped: 4, Repaired: 3, Seeded: 2, TreeHits: 1})
	if sum != (PlaneStats{Rounds: 3, Sources: 60, Requests: 210, Skipped: 4, Repaired: 3, Seeded: 2, TreeHits: 1}) {
		t.Fatalf("merge produced %+v", sum)
	}
}
