package underlay

import (
	"math"
	"testing"

	"overcast/internal/graph"
	"overcast/internal/rng"
)

// ring builds an n-node ring with a few chords, capacity 100.
func ring(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.AddEdge(v, (v+1)%n, 100); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v+n/2 < n; v += 3 {
		if err := b.AddEdge(v, v+n/2, 100); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestGenerateFailuresDeterministicAndValid(t *testing.T) {
	g := ring(t, 16)
	cfg := FailureConfig{FailRate: 0.5, MeanRepair: 1.5, Horizon: 20}
	a, err := GenerateFailures(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFailures(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("failure trace is empty")
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("non-deterministic trace: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	// Per-link alternation: a link can only recover after failing.
	down := make([]bool, g.NumEdges())
	for i, ev := range a.Events {
		switch ev.Kind {
		case LinkDown:
			if down[ev.Edge] {
				t.Fatalf("event %d: edge %d fails while down", i, ev.Edge)
			}
			down[ev.Edge] = true
		case LinkUp:
			if !down[ev.Edge] {
				t.Fatalf("event %d: edge %d recovers while up", i, ev.Edge)
			}
			down[ev.Edge] = false
		}
	}
}

func TestStateApplyMirrorsCapacityIntoLengthFactor(t *testing.T) {
	g := ring(t, 8)
	st := NewState(g)
	ls := graph.NewLengthStore(g, 1)

	apply := func(ev Event) (float64, bool) {
		f, changed := st.Apply(ev)
		if changed {
			ls.Bump(ev.Edge, f)
		}
		return f, changed
	}

	// Down: capacity collapses, length explodes monotonically.
	before := ls.Epoch()
	if _, changed := apply(Event{Kind: LinkDown, Edge: 2}); !changed {
		t.Fatal("link-down was a no-op")
	}
	if math.Abs(g.Edges[2].Capacity/(100*DefaultDownFactor)-1) > 1e-12 {
		t.Fatalf("down capacity %v, want %v", g.Edges[2].Capacity, 100*DefaultDownFactor)
	}
	if !ls.MonotoneSince(before) {
		t.Fatal("link-down must mirror as monotone length growth")
	}
	// Second overlapping down is a no-op.
	if _, changed := apply(Event{Kind: LinkDown, Edge: 2}); changed {
		t.Fatal("second link-down should be a no-op")
	}
	// First up only decrements the overlap counter's second down... the
	// counter is 2, so one up keeps it down.
	if _, changed := apply(Event{Kind: LinkUp, Edge: 2}); changed {
		t.Fatal("link-up under an outstanding overlapping down should be a no-op")
	}
	// Final up restores, shrinking the length — non-monotone by definition.
	before = ls.Epoch()
	if _, changed := apply(Event{Kind: LinkUp, Edge: 2}); !changed {
		t.Fatal("final link-up was a no-op")
	}
	if g.Edges[2].Capacity != 100 {
		t.Fatalf("recovered capacity %v, want 100", g.Edges[2].Capacity)
	}
	if ls.MonotoneSince(before) {
		t.Fatal("recovery must mirror as a non-monotone length shrink")
	}
	if math.Abs(ls.At(2)-1) > 1e-12 {
		t.Fatalf("recovered length %v, want 1", ls.At(2))
	}

	// Drift composes with down/up.
	apply(Event{Kind: Drift, Edge: 5, Factor: 0.5})
	if g.Edges[5].Capacity != 50 {
		t.Fatalf("drifted capacity %v, want 50", g.Edges[5].Capacity)
	}
	apply(Event{Kind: LinkDown, Edge: 5})
	apply(Event{Kind: Drift, Edge: 5, Factor: 4})
	apply(Event{Kind: LinkUp, Edge: 5})
	if g.Edges[5].Capacity != 200 {
		t.Fatalf("post-recovery drifted capacity %v, want 200", g.Edges[5].Capacity)
	}
	if st.Downs != 2 || st.Ups != 2 || st.Drifts != 2 {
		t.Fatalf("counters downs=%d ups=%d drifts=%d, want 2/2/2", st.Downs, st.Ups, st.Drifts)
	}

	st.Restore()
	for e := range g.Edges {
		if g.Edges[e].Capacity != 100 {
			t.Fatalf("Restore left edge %d at %v", e, g.Edges[e].Capacity)
		}
	}
}

func TestDamperSuppressesOscillation(t *testing.T) {
	g := ring(t, 8)
	d := NewDamper(g, DamperConfig{Penalty: 1000, HalfLife: 10, Suppress: 2500, Reuse: 800})

	// A fast fail/recover oscillation on edge 0: period 0.5, 40 flaps.
	applied := 0
	var downAt bool
	for i := 0; i < 40; i++ {
		t0 := float64(i) * 0.5
		for _, ev := range d.Process(Event{Time: t0, Kind: LinkDown, Edge: 0}) {
			applied++
			if ev.Kind == LinkDown {
				downAt = true
			} else if ev.Kind == LinkUp {
				downAt = false
			}
		}
		for _, ev := range d.Process(Event{Time: t0 + 0.25, Kind: LinkUp, Edge: 0}) {
			applied++
			if ev.Kind == LinkUp {
				downAt = false
			} else if ev.Kind == LinkDown {
				downAt = true
			}
		}
	}
	if d.Suppressed == 0 {
		t.Fatal("oscillation never hit the suppress threshold")
	}
	// Undamped, 80 events would apply; damping must block most recoveries.
	if applied > 50 {
		t.Fatalf("damper passed %d of 80 oscillation events; suppression is not bounding churn", applied)
	}
	if !downAt {
		t.Fatal("link must be held down while suppressed")
	}
	if d.Held() != 1 {
		t.Fatalf("Held()=%d, want 1", d.Held())
	}

	// After enough quiet time the penalty decays below reuse and the held
	// recovery is released exactly once.
	rel := d.Flush(200)
	if len(rel) != 1 || rel[0].Kind != LinkUp || rel[0].Edge != 0 {
		t.Fatalf("Flush released %+v, want one LinkUp on edge 0", rel)
	}
	if d.Held() != 0 || d.Released != 1 {
		t.Fatalf("post-flush held=%d released=%d, want 0/1", d.Held(), d.Released)
	}
	// Determinism: an identical replay produces identical decisions.
	d2 := NewDamper(g, DamperConfig{Penalty: 1000, HalfLife: 10, Suppress: 2500, Reuse: 800})
	applied2 := 0
	for i := 0; i < 40; i++ {
		t0 := float64(i) * 0.5
		applied2 += len(d2.Process(Event{Time: t0, Kind: LinkDown, Edge: 0}))
		applied2 += len(d2.Process(Event{Time: t0 + 0.25, Kind: LinkUp, Edge: 0}))
	}
	if applied2 != applied || d2.Suppressed != d.Suppressed {
		t.Fatalf("damper not deterministic: applied %d vs %d, suppressed %d vs %d",
			applied2, applied, d2.Suppressed, d.Suppressed)
	}
}
