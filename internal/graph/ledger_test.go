package graph

import (
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
