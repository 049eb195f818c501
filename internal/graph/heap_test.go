package graph

import (
	"testing"

	"overcast/internal/rng"
)

// heapModelKeys is the key alphabet of the heap model runs: few distinct
// values, so equal keys — and the item-id tie-break — are common.
var heapModelKeys = [...]float64{-1, 0, 0.25, 0.5, 1, 2, 3, 8}

// runHeapModel decodes data into IndexedHeap calls and checks each against a
// brute-force model. The first byte sizes the heap (1..64 items); every
// following triple is (op, item, key index). Pop must return the model's
// minimum by (key, id), misuse must panic without changing the heap, and
// Len, Contains and Key must agree with the model after every call.
func runHeapModel(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%64
	data = data[1:]
	h := NewIndexedHeap(n)
	queued := make([]bool, n)
	keys := make([]float64, n)
	size := 0
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		item := int(data[1]) % n
		key := heapModelKeys[int(data[2])%len(heapModelKeys)]
		switch data[0] % 5 {
		case 0: // Push
			if queued[item] {
				if !panics(func() { h.Push(item, key) }) {
					t.Fatalf("step %d: Push of queued item %d did not panic", step, item)
				}
				break
			}
			h.Push(item, key)
			queued[item], keys[item] = true, key
			size++
		case 1: // DecreaseKey
			if !queued[item] || key > keys[item] {
				if !panics(func() { h.DecreaseKey(item, key) }) {
					t.Fatalf("step %d: DecreaseKey(%d, %v) did not panic (queued %v)", step, item, key, queued[item])
				}
				break
			}
			h.DecreaseKey(item, key)
			keys[item] = key
		case 2: // PushOrDecrease
			want := !queued[item] || key < keys[item]
			if got := h.PushOrDecrease(item, key); got != want {
				t.Fatalf("step %d: PushOrDecrease(%d, %v) = %v, want %v", step, item, key, got, want)
			}
			if want {
				if !queued[item] {
					size++
				}
				queued[item], keys[item] = true, key
			}
		case 3: // Pop
			if size == 0 {
				if !panics(func() { h.Pop() }) {
					t.Fatalf("step %d: Pop of empty heap did not panic", step)
				}
				break
			}
			best := -1
			for i := range queued {
				if queued[i] && (best < 0 || keys[i] < keys[best]) {
					best = i // ascending i: a tie keeps the smaller id
				}
			}
			gotItem, gotKey := h.Pop()
			if gotItem != best || gotKey != keys[best] {
				t.Fatalf("step %d: Pop = (%d, %v), want (%d, %v)", step, gotItem, gotKey, best, keys[best])
			}
			queued[best] = false
			size--
		case 4: // Reset
			h.Reset()
			clear(queued)
			size = 0
		}
		if h.Len() != size {
			t.Fatalf("step %d: Len = %d, want %d", step, h.Len(), size)
		}
		for i := range queued {
			if h.Contains(i) != queued[i] {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", step, i, h.Contains(i), queued[i])
			}
			if queued[i] && h.Key(i) != keys[i] {
				t.Fatalf("step %d: Key(%d) = %v, want %v", step, i, h.Key(i), keys[i])
			}
		}
	}
}

// TestIndexedHeapModel drives seeded random call sequences through the heap
// model, checking every popped item id, not just key order.
func TestIndexedHeapModel(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		data := make([]byte, 1+3*400)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		runHeapModel(t, data)
	}
}

// FuzzIndexedHeap checks the heap against the brute-force model on
// fuzzer-chosen call sequences.
func FuzzIndexedHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 4, 0, 2, 4, 3, 0, 0})
	f.Add([]byte{63, 0, 5, 3, 0, 9, 3, 2, 5, 1, 1, 9, 0, 3, 0, 0, 3, 0, 0, 4, 0, 0, 3, 0, 0})
	f.Add([]byte{3, 2, 0, 7, 2, 1, 7, 2, 2, 7, 1, 2, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runHeapModel(t, data)
	})
}
