package graph

import (
	"math"
	"math/rand"
	"testing"
)

func ledgerFixture(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(i, (i+3)%n, 2); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestLedgerTouchedExact is the ledger property test: after an arbitrary
// mutation sequence, Touched(since) must name exactly the edges whose
// lengths moved after `since` — no false positives, no false negatives —
// for every epoch the journal still covers. The reference is a brute-force
// diff of value snapshots.
func TestLedgerTouchedExact(t *testing.T) {
	g := ledgerFixture(t, 32)
	s := NewLengthStore(g, 1)
	rng := rand.New(rand.NewSource(7))

	snapshots := []Lengths{s.Values().Clone()} // snapshots[e] = values at epoch e
	epochs := []Epoch{0}
	for step := 0; step < 500; step++ {
		e := rng.Intn(g.NumEdges())
		if rng.Intn(10) == 0 {
			s.Set(e, 0.5+rng.Float64())
		} else {
			// Factors strictly above 1 so every Bump moves the value.
			s.Bump(e, 1+0.1*(1+rng.Float64()))
		}
		snapshots = append(snapshots, s.Values().Clone())
		epochs = append(epochs, s.Epoch())
	}
	if got, want := s.Epoch(), Epoch(500); got != want {
		t.Fatalf("epoch %d after 500 mutations, want %d", got, want)
	}
	for _, sinceIdx := range []int{0, 1, 17, 250, 499, 500} {
		since := epochs[sinceIdx]
		touched, ok := s.Touched(since)
		if !ok {
			t.Fatalf("journal no longer covers epoch %d (window too small for test)", since)
		}
		want := map[EdgeID]bool{}
		for e := range snapshots[sinceIdx] {
			if snapshots[sinceIdx][e] != snapshots[len(snapshots)-1][e] {
				want[e] = true
			}
		}
		got := map[EdgeID]bool{}
		for _, e := range touched {
			if got[e] {
				t.Fatalf("Touched(%d) repeats edge %d", since, e)
			}
			got[e] = true
		}
		for e := range want {
			if !got[e] {
				t.Errorf("Touched(%d) misses edge %d whose length moved", since, e)
			}
		}
		for e := range got {
			if !want[e] {
				t.Errorf("Touched(%d) reports edge %d whose length did not move", since, e)
			}
		}
	}
}

// TestLedgerTouchedReportsShrinks is the non-monotone half of the journal
// property: a mutation sequence dominated by shrinks (Set below current,
// Bump with factor < 1, a relative Set that may go either way) must still
// journal every touch, so Touched(since) == brute-force snapshot diff and
// ForEachTouched replays the exact mutation order. Underlay fault recovery
// depends on this — a link-up mirrors as a length shrink, and a plane row
// that missed it would keep routing around a healthy link.
func TestLedgerTouchedReportsShrinks(t *testing.T) {
	g := ledgerFixture(t, 24)
	s := NewLengthStore(g, 4)
	rng := rand.New(rand.NewSource(11))

	snapshots := []Lengths{s.Values().Clone()}
	epochs := []Epoch{0}
	var order []EdgeID // reference journal: edge touched at each step
	for step := 0; step < 400; step++ {
		e := rng.Intn(g.NumEdges())
		switch rng.Intn(4) {
		case 0:
			s.Set(e, 0.25+rng.Float64()) // near-certain shrink from 4
		case 1:
			s.Bump(e, 0.5+0.4*rng.Float64()) // shrinking bump
		case 2:
			s.Set(e, s.At(e)*(0.5+rng.Float64())) // may lower or grow
		default:
			s.Bump(e, 1.0001+rng.Float64())
		}
		order = append(order, e)
		snapshots = append(snapshots, s.Values().Clone())
		epochs = append(epochs, s.Epoch())
	}
	if s.MonotoneSince(0) {
		t.Fatal("shrink-heavy sequence cannot be monotone")
	}
	for _, sinceIdx := range []int{0, 3, 111, 399, 400} {
		since := epochs[sinceIdx]
		touched, ok := s.Touched(since)
		if !ok {
			t.Fatalf("journal lost epoch %d", since)
		}
		want := map[EdgeID]bool{}
		for e := range snapshots[sinceIdx] {
			if snapshots[sinceIdx][e] != snapshots[len(snapshots)-1][e] {
				want[e] = true
			}
		}
		got := map[EdgeID]bool{}
		for _, e := range touched {
			got[e] = true
		}
		// Every moved edge must be reported. (The converse can miss: a
		// shrink followed by a growth back to the exact old value is still
		// journaled — that is correct over-reporting, never under.)
		for e := range want {
			if !got[e] {
				t.Errorf("Touched(%d) misses shrunk edge %d", since, e)
			}
		}
		// ForEachTouched must replay the exact mutation order.
		var replay []EdgeID
		if !s.ForEachTouched(since, func(e EdgeID) bool {
			replay = append(replay, e)
			return false
		}) {
			t.Fatalf("ForEachTouched lost epoch %d", since)
		}
		wantOrder := order[sinceIdx:]
		if len(replay) != len(wantOrder) {
			t.Fatalf("ForEachTouched(%d) replayed %d touches, want %d", since, len(replay), len(wantOrder))
		}
		for i := range replay {
			if replay[i] != wantOrder[i] {
				t.Fatalf("ForEachTouched(%d) order diverges at %d: %d vs %d", since, i, replay[i], wantOrder[i])
			}
		}
	}
}

// TestLedgerJournalRangeGuards pins the out-of-range contract: a `since`
// beyond the current epoch (e.g. an epoch taken from a different ledger
// after a fault resync swapped stores) reports ok=false instead of
// panicking or fabricating an empty diff.
func TestLedgerJournalRangeGuards(t *testing.T) {
	g := ledgerFixture(t, 8)
	s := NewLengthStore(g, 1)
	s.Bump(0, 2)
	if _, ok := s.Touched(s.Epoch() + 1); ok {
		t.Fatal("Touched must reject a future epoch")
	}
	if s.ForEachTouched(s.Epoch()+5, func(EdgeID) bool { return false }) {
		t.Fatal("ForEachTouched must reject a future epoch")
	}
	if _, ok := s.Touched(s.Epoch()); !ok {
		t.Fatal("Touched at the current epoch is an empty, answerable diff")
	}
}

// TestLedgerLastTouchedAndMonotone pins the per-edge stamps and the
// monotonicity tracking the plane repair check relies on.
func TestLedgerLastTouchedAndMonotone(t *testing.T) {
	g := ledgerFixture(t, 8)
	s := NewLengthStore(g, 2)
	if s.Epoch() != 0 || !s.MonotoneSince(0) {
		t.Fatalf("fresh store: epoch %d monotone %v", s.Epoch(), s.MonotoneSince(0))
	}
	s.Bump(3, 1.5)
	if s.LastTouched(3) != 1 || s.LastTouched(0) != 0 {
		t.Fatalf("stamps: %d, %d", s.LastTouched(3), s.LastTouched(0))
	}
	if !s.MonotoneSince(0) {
		t.Fatal("growth marked non-monotone")
	}
	if s.At(3) != 3 {
		t.Fatalf("At(3) = %v", s.At(3))
	}
	s.Bump(4, 0.5) // shrink
	if s.MonotoneSince(1) {
		t.Fatal("shrinking bump not flagged")
	}
	if !s.MonotoneSince(2) {
		t.Fatal("MonotoneSince after the shrink epoch must hold")
	}
	s.Set(5, 9)
	if s.MonotoneSince(2) {
		t.Fatal("Set must count as non-monotone")
	}
	if s.TouchedCount(0) != 3 {
		t.Fatalf("TouchedCount(0) = %d", s.TouchedCount(0))
	}
}

// TestLedgerJournalWindow drives the journal past its bound and checks the
// sliding-window contract: old epochs report ok=false, recent ones stay
// exact, and the per-edge stamps survive compaction untouched.
func TestLedgerJournalWindow(t *testing.T) {
	g := ledgerFixture(t, 8)
	s := NewLengthStoreFrom(NewLengths(g, 1))
	total := maxJournal + maxJournal/2
	for i := 0; i < total; i++ {
		s.Bump(i%g.NumEdges(), 1.0000001)
	}
	if s.Epoch() != Epoch(total) {
		t.Fatalf("epoch %d, want %d", s.Epoch(), total)
	}
	if _, ok := s.Touched(0); ok {
		t.Fatal("epoch 0 should have slid out of the journal window")
	}
	if !s.ForEachTouched(s.Epoch()-1, func(EdgeID) bool { return false }) {
		t.Fatal("most recent epoch must stay covered")
	}
	visited := 0
	s.ForEachTouched(s.Epoch()-10, func(EdgeID) bool { visited++; return visited == 3 })
	if visited != 3 {
		t.Fatalf("early exit visited %d entries, want 3", visited)
	}
	recent, ok := s.Touched(s.Epoch() - Epoch(g.NumEdges()))
	if !ok || len(recent) != g.NumEdges() {
		t.Fatalf("recent window: ok=%v edges=%d, want all %d", ok, len(recent), g.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		if s.LastTouched(e) <= 0 {
			t.Fatalf("stamp for edge %d lost in compaction", e)
		}
	}
}

// FuzzLengthStore drives a LengthStore with fuzzer-chosen Bump and Set
// operations — factors on both sides of 1, assignments including zero and
// negative values — plus at most one burst that overruns JournalWindow, and
// checks every query against a brute-force model that keeps the whole
// mutation history. The seeds replay the sequences of the tests above.
func FuzzLengthStore(f *testing.F) {
	f.Add([]byte{15, 1, 0, 3, 4, 4, 2, 5})                        // TestLedgerLastTouchedAndMonotone
	f.Add([]byte{15, 0, 3, 0, 16, 1, 16, 2})                      // TestLedgerJournalWindow
	f.Add([]byte{15, 0, 8, 0})                                    // TestLedgerJournalRangeGuards
	f.Add([]byte{15, 2, 14, 3, 5, 7, 22, 1, 13, 9, 1, 4, 25, 11}) // TestLedgerTouchedReportsShrinks
	f.Add([]byte{7, 3, 0, 1, 6, 2, 10, 0, 20, 4, 3, 200, 29, 2, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		runLedgerModel(t, data)
	})
}

var (
	fuzzFactors = [...]float64{1.5, 0.5, 2, 1, 1.0000001, 0.9, 1.1, 0.75}
	fuzzSets    = [...]float64{9, 0, -1, 0.25, 1, 1e-300, 4, -0.5}
	fuzzInits   = [...]float64{1, 2, 4, 0.5}
)

// runLedgerModel decodes data as: edge count, initial length, then (op, arg)
// byte pairs. op 3 is the burst (once; later ones act as Bumps), any other
// op%4 == 2 a Set and the rest Bumps; op/4 picks the value or factor, arg
// the edge. The burst applies JournalWindow+arg+1 bumps round-robin over the
// edges, each edge alternating ×2 and ×0.5 like the fault storm. It is one
// op value in 256, so most inputs stay cheap enough to fuzz quickly.
func runLedgerModel(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	m := 1 + int(data[0])%16
	init := fuzzInits[int(data[1])%len(fuzzInits)]
	ops := data[2:]
	if len(ops) > 512 {
		ops = ops[:512]
	}
	vals := make(Lengths, m)
	for e := range vals {
		vals[e] = init
	}
	s := NewLengthStoreFrom(vals.Clone())
	model := ledgerModel{vals: vals, last: make([]Epoch, m), minHeld: init}
	model.check(t, s, true)
	burst := false
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		e := arg % m
		switch {
		case op%4 == 2:
			v := fuzzSets[int(op/4)%len(fuzzSets)]
			s.Set(e, v)
			model.apply(e, v, true)
		case op == 3 && !burst:
			burst = true
			for j := 0; j <= JournalWindow+arg; j++ {
				factor := 2.0
				if (j/m)%2 == 1 {
					factor = 0.5
				}
				s.Bump(j%m, factor)
				model.apply(j%m, model.vals[j%m]*factor, factor < 1)
			}
			model.check(t, s, true)
			continue
		default:
			factor := fuzzFactors[int(op/4)%len(fuzzFactors)]
			s.Bump(e, factor)
			model.apply(e, model.vals[e]*factor, factor < 1)
		}
		model.check(t, s, model.epoch() < 2048)
	}
	model.check(t, s, true)
}

// ledgerModel is the brute-force reference: current values, the edge and
// shrink flag of every mutation in order, and the minimum of every value
// ever held.
type ledgerModel struct {
	vals    []float64
	last    []Epoch
	edges   []EdgeID
	shrinks []bool
	minHeld float64
}

func (md *ledgerModel) epoch() Epoch { return Epoch(len(md.edges)) }

func (md *ledgerModel) apply(e EdgeID, v float64, shrink bool) {
	md.vals[e] = v
	md.edges = append(md.edges, e)
	md.shrinks = append(md.shrinks, shrink)
	md.last[e] = md.epoch()
	if v < md.minHeld {
		md.minHeld = v
	}
}

// check compares s with the model. The per-edge and O(1) queries are checked
// every time; full also checks MonotoneSince and TouchedCount at every epoch
// and the journal replays at the window boundaries, which cost O(epoch).
func (md *ledgerModel) check(t *testing.T, s *LengthStore, full bool) {
	t.Helper()
	cur := md.epoch()
	if s.Epoch() != cur {
		t.Fatalf("epoch %d, model %d", s.Epoch(), cur)
	}
	allPos, curMin := true, math.Inf(1)
	for e, v := range md.vals {
		if math.Float64bits(s.At(e)) != math.Float64bits(v) || math.Float64bits(s.Values()[e]) != math.Float64bits(v) {
			t.Fatalf("epoch %d: edge %d length %v, model %v", cur, e, s.At(e), v)
		}
		if s.LastTouched(e) != md.last[e] {
			t.Fatalf("epoch %d: edge %d last touched %d, model %d", cur, e, s.LastTouched(e), md.last[e])
		}
		allPos = allPos && v > 0
		curMin = min(curMin, v)
	}
	if s.AllPositive() != allPos {
		t.Fatalf("epoch %d: AllPositive %v, model %v", cur, s.AllPositive(), allPos)
	}
	if lb := s.MinLengthLB(); lb != md.minHeld || lb > curMin {
		t.Fatalf("epoch %d: MinLengthLB %v, model min held %v, current min %v", cur, lb, md.minHeld, curMin)
	}
	sinces := []Epoch{-1, cur - 16, cur - 1, cur, cur + 1}
	if full {
		monotone := true
		for since := cur; since >= 0; since-- {
			if since < cur && md.shrinks[since] {
				monotone = false
			}
			if s.MonotoneSince(since) != monotone {
				t.Fatalf("epoch %d: MonotoneSince(%d) %v, model %v", cur, since, s.MonotoneSince(since), monotone)
			}
			if s.TouchedCount(since) != cur-since {
				t.Fatalf("epoch %d: TouchedCount(%d) %d, want %d", cur, since, s.TouchedCount(since), cur-since)
			}
		}
		half, w := Epoch(JournalWindow/2), Epoch(JournalWindow)
		sinces = append(sinces, 0, 1, cur-half, cur-half-1, cur-w, cur-w-1)
	}
	for _, since := range sinces {
		md.checkReplay(t, s, since)
	}
}

// checkReplay checks Touched and ForEachTouched at since. The journal must
// cover every since in [max(0, epoch-JournalWindow/2), epoch], none outside
// [max(0, epoch-JournalWindow), epoch], and replay exactly the model's
// mutations whenever it reports coverage.
func (md *ledgerModel) checkReplay(t *testing.T, s *LengthStore, since Epoch) {
	t.Helper()
	cur := md.epoch()
	replay := make([]EdgeID, 0, max(0, min(cur-since, JournalWindow)))
	ok := s.ForEachTouched(since, func(e EdgeID) bool {
		replay = append(replay, e)
		return false
	})
	touched, tok := s.Touched(since)
	if ok != tok {
		t.Fatalf("epoch %d: since %d: ForEachTouched ok %v, Touched ok %v", cur, since, ok, tok)
	}
	switch {
	case since < 0 || since > cur || since < cur-JournalWindow:
		if ok {
			t.Fatalf("epoch %d: since %d reported covered", cur, since)
		}
	case since >= cur-JournalWindow/2:
		if !ok {
			t.Fatalf("epoch %d: since %d inside the guaranteed window reported uncovered", cur, since)
		}
	}
	if !ok {
		if touched != nil {
			t.Fatalf("epoch %d: since %d uncovered but Touched returned %d edges", cur, since, len(touched))
		}
		return
	}
	want := md.edges[since:]
	if len(replay) != len(want) {
		t.Fatalf("epoch %d: ForEachTouched(%d) replayed %d entries, model %d", cur, since, len(replay), len(want))
	}
	seen := make([]bool, len(md.vals))
	var distinct []EdgeID
	for i, e := range want {
		if replay[i] != e {
			t.Fatalf("epoch %d: ForEachTouched(%d) entry %d is edge %d, model %d", cur, since, i, replay[i], e)
		}
		if !seen[e] {
			seen[e] = true
			distinct = append(distinct, e)
		}
	}
	if len(touched) != len(distinct) {
		t.Fatalf("epoch %d: Touched(%d) %v, model %v", cur, since, touched, distinct)
	}
	for i := range distinct {
		if touched[i] != distinct[i] {
			t.Fatalf("epoch %d: Touched(%d) %v, model %v", cur, since, touched, distinct)
		}
	}
	visited := 0
	s.ForEachTouched(since, func(EdgeID) bool { visited++; return visited == 3 })
	if visited != min(3, len(want)) {
		t.Fatalf("epoch %d: ForEachTouched(%d) stopping at 3 visited %d", cur, since, visited)
	}
}
