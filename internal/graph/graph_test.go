package graph

import (
	"testing"
	"testing/quick"

	"overcast/internal/rng"
)

func mustBuild(t *testing.T, n int, edges [][3]float64) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return b.Build()
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		u, v int
		c    float64
		name string
	}{
		{0, 0, 1, "self loop"},
		{0, 3, 1, "out of range"},
		{-1, 1, 1, "negative node"},
		{0, 1, 0, "zero capacity"},
		{0, 1, -2, "negative capacity"},
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.c); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := b.AddEdge(0, 1, 5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0, 5); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestBuilderNegativeNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}

func TestEdgeIDsDeterministicAcrossInsertionOrder(t *testing.T) {
	b1 := NewBuilder(4)
	b2 := NewBuilder(4)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	for _, e := range edges {
		if err := b1.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if err := b2.AddEdge(edges[i][1], edges[i][0], 1); err != nil {
			t.Fatal(err)
		}
	}
	g1, g2 := b1.Build(), b2.Build()
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, g1.Edges[i], g2.Edges[i])
		}
	}
}

func TestAdjacencyAndDegrees(t *testing.T) {
	g := mustBuild(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}, {1, 3, 5}})
	wantDeg := []int{2, 3, 2, 3}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	for v := 0; v < 4; v++ {
		for _, id := range g.Adj(v) {
			e := g.Edges[id]
			if e.U != v && e.V != v {
				t.Errorf("edge %v in adj(%d)", e, v)
			}
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	g := mustBuild(t, 3, [][3]float64{{0, 1, 1}, {1, 2, 2}})
	if id, ok := g.EdgeBetween(2, 1); !ok || g.Edges[id].Capacity != 2 {
		t.Fatalf("EdgeBetween(2,1) = %d,%v", id, ok)
	}
	if _, ok := g.EdgeBetween(0, 2); ok {
		t.Fatal("EdgeBetween found non-existent edge")
	}
}

func TestEdgeOtherPanicsOnNonEndpoint(t *testing.T) {
	e := Edge{U: 1, V: 2, Capacity: 1}
	if e.Other(1) != 2 || e.Other(2) != 1 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other(3) did not panic")
		}
	}()
	e.Other(3)
}

func TestCapacityAggregates(t *testing.T) {
	g := mustBuild(t, 3, [][3]float64{{0, 1, 4}, {1, 2, 2.5}})
	if got := g.MinCapacity(); got != 2.5 {
		t.Errorf("MinCapacity = %v", got)
	}
	if got := g.TotalCapacity(); got != 6.5 {
		t.Errorf("TotalCapacity = %v", got)
	}
	empty := NewBuilder(2).Build()
	if empty.MinCapacity() != 0 {
		t.Error("empty MinCapacity should be 0")
	}
}

func TestConnected(t *testing.T) {
	if !NewBuilder(0).Build().Connected() {
		t.Error("empty graph should be connected")
	}
	if !NewBuilder(1).Build().Connected() {
		t.Error("single node should be connected")
	}
	g := mustBuild(t, 4, [][3]float64{{0, 1, 1}, {2, 3, 1}})
	if g.Connected() {
		t.Error("two components reported connected")
	}
	g2 := mustBuild(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	if !g2.Connected() {
		t.Error("path graph reported disconnected")
	}
}

func TestLengths(t *testing.T) {
	g := mustBuild(t, 3, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	l := NewLengths(g, 0.5)
	if got := l.PathLength([]EdgeID{0, 1}); got != 1.0 {
		t.Errorf("PathLength = %v", got)
	}
	c := l.Clone()
	c[0] = 99
	if l[0] == 99 {
		t.Error("Clone aliases original")
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions returned false")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union returned true")
	}
	if uf.Count() != 3 {
		t.Fatalf("count after two unions = %d", uf.Count())
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	uf.Union(1, 3)
	if !uf.Connected(0, 2) {
		t.Fatal("transitive connectivity wrong")
	}
	uf.Reset()
	if uf.Count() != 5 || uf.Connected(0, 1) {
		t.Fatal("Reset did not restore singletons")
	}
}

func TestUnionFindAgainstNaive(t *testing.T) {
	// Property test: UnionFind matches a naive label-propagation model
	// under random union sequences.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 30
		uf := NewUnionFind(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		for step := 0; step < 60; step++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			uf.Union(a, b)
			la, lb := labels[a], labels[b]
			if la != lb {
				for i := range labels {
					if labels[i] == lb {
						labels[i] = la
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if uf.Connected(i, j) != (labels[i] == labels[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapOrdering(t *testing.T) {
	h := NewIndexedHeap(10)
	keys := []float64{5, 3, 8, 1, 9, 2, 7, 0, 4, 6}
	for i, k := range keys {
		h.Push(i, k)
	}
	prev := -1.0
	for h.Len() > 0 {
		_, k := h.Pop()
		if k < prev {
			t.Fatalf("heap popped out of order: %v after %v", k, prev)
		}
		prev = k
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(3)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	if item, k := h.Pop(); item != 2 || k != 5 {
		t.Fatalf("Pop after DecreaseKey = (%d,%v)", item, k)
	}
	if changed := h.PushOrDecrease(1, 25); changed {
		t.Fatal("PushOrDecrease with larger key reported change")
	}
	if changed := h.PushOrDecrease(1, 7); !changed {
		t.Fatal("PushOrDecrease with smaller key reported no change")
	}
	if item, _ := h.Pop(); item != 1 {
		t.Fatalf("expected item 1, got %d", item)
	}
}

func TestIndexedHeapDeterministicTieBreak(t *testing.T) {
	h := NewIndexedHeap(5)
	for i := 4; i >= 0; i-- {
		h.Push(i, 1.0)
	}
	for want := 0; want < 5; want++ {
		if item, _ := h.Pop(); item != want {
			t.Fatalf("tie-break popped %d, want %d", item, want)
		}
	}
}

func TestIndexedHeapPanics(t *testing.T) {
	h := NewIndexedHeap(2)
	h.Push(0, 1)
	func() {
		defer func() { _ = recover() }()
		h.Push(0, 2)
		t.Error("double Push did not panic")
	}()
	func() {
		defer func() { _ = recover() }()
		h.DecreaseKey(1, 0)
		t.Error("DecreaseKey on absent item did not panic")
	}()
	func() {
		defer func() { _ = recover() }()
		h.DecreaseKey(0, 100)
		t.Error("DecreaseKey with larger key did not panic")
	}()
	h.Pop()
	func() {
		defer func() { _ = recover() }()
		h.Key(0)
		t.Error("Key of a popped item did not panic")
	}()
	func() {
		defer func() { _ = recover() }()
		h.Pop()
		t.Error("Pop on empty heap did not panic")
	}()
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	h.Push(0, 3) // must not panic after reset
}

func TestIndexedHeapRandomAgainstSort(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 50
		h := NewIndexedHeap(n)
		want := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			k := r.Float64()
			h.Push(i, k)
			want = append(want, k)
		}
		// Randomly decrease some keys.
		for j := 0; j < 20; j++ {
			i := r.Intn(n)
			if h.Contains(i) {
				nk := h.Key(i) * r.Float64()
				h.DecreaseKey(i, nk)
				want[i] = nk
			}
		}
		prev := -1.0
		popped := 0
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
			popped++
		}
		return popped == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexedHeapPushPop(b *testing.B) {
	r := rng.New(1)
	const n = 1024
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewIndexedHeap(n)
		for j := 0; j < n; j++ {
			h.Push(j, keys[j])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

func BenchmarkUnionFind(b *testing.B) {
	r := rng.New(1)
	const n = 4096
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uf := NewUnionFind(n)
		for _, p := range pairs {
			if p[0] != p[1] {
				uf.Union(p[0], p[1])
			}
		}
	}
}
