package graph

// IndexedHeap is a binary min-heap over items 0..n-1 keyed by float64
// priorities, with DecreaseKey support. It backs Dijkstra's shortest paths,
// the inner loop of every arbitrary-routing oracle, so it avoids interface
// dispatch and allocation on the hot path: each slot holds its key inline
// next to the item id, and sifts move a hole instead of swapping slots.
//
// Items are ordered by (key, item id), a total order, so Pop's result — and
// hence the pop sequence — does not depend on the heap's internal layout.
type IndexedHeap struct {
	heap []heapSlot
	pos  []int32 // pos[item] = index in heap, -1 if absent
}

// heapSlot is one queued item with its key stored inline, so a comparison
// reads the slot alone.
type heapSlot struct {
	key  float64
	item int32
}

// before reports whether a precedes b in (key, item id) order.
func (a heapSlot) before(b heapSlot) bool {
	return a.key < b.key || (a.key == b.key && a.item < b.item)
}

// NewIndexedHeap creates an empty heap over item ids [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		heap: make([]heapSlot, 0, n),
		pos:  make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of items currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Contains reports whether item is currently queued.
func (h *IndexedHeap) Contains(item int) bool { return h.pos[item] >= 0 }

// Key returns the current key of a queued item. It panics if the item is not
// queued.
func (h *IndexedHeap) Key(item int) float64 {
	i := h.pos[item]
	if i < 0 {
		panic("graph: IndexedHeap.Key of absent item")
	}
	return h.heap[i].key
}

// Push inserts item with the given key. It panics if the item is already
// queued.
func (h *IndexedHeap) Push(item int, key float64) {
	if h.pos[item] >= 0 {
		panic("graph: IndexedHeap.Push of queued item")
	}
	h.heap = append(h.heap, heapSlot{})
	h.up(uint(len(h.heap)-1), heapSlot{key: key, item: int32(item)})
}

// DecreaseKey lowers item's key. It panics if the item is not queued or the
// new key is larger than the current one.
func (h *IndexedHeap) DecreaseKey(item int, key float64) {
	i := h.pos[item]
	if i < 0 {
		panic("graph: DecreaseKey of absent item")
	}
	if key > h.heap[i].key {
		panic("graph: DecreaseKey with larger key")
	}
	h.up(uint(i), heapSlot{key: key, item: int32(item)})
}

// PushOrDecrease inserts item, or lowers its key if already queued and the
// new key is smaller. It reports whether the heap changed.
func (h *IndexedHeap) PushOrDecrease(item int, key float64) bool {
	i := h.pos[item]
	if i < 0 {
		h.Push(item, key)
		return true
	}
	if key < h.heap[i].key {
		h.up(uint(i), heapSlot{key: key, item: int32(item)})
		return true
	}
	return false
}

// Pop removes and returns the item with the smallest key. Ties break toward
// the smaller item id so that the heap's observable behaviour is
// deterministic. It panics on an empty heap.
func (h *IndexedHeap) Pop() (item int, key float64) {
	if len(h.heap) == 0 {
		panic("graph: Pop from empty IndexedHeap")
	}
	top := h.heap[0]
	h.pos[top.item] = -1
	last := len(h.heap) - 1
	if last > 0 {
		h.down(h.heap[last], last)
	}
	h.heap = h.heap[:last]
	return int(top.item), top.key
}

// Reset empties the heap without reallocating.
func (h *IndexedHeap) Reset() {
	for _, s := range h.heap {
		h.pos[s.item] = -1
	}
	h.heap = h.heap[:0]
}

// up places s at the hole i or above it: parents that s precedes move down
// into the hole one level at a time, and s is written once where the hole
// stops. Indices are unsigned here and in down so that halving needs no
// sign fix-up and child reads need no bounds check.
func (h *IndexedHeap) up(i uint, s heapSlot) {
	heap, pos := h.heap, h.pos
	for i > 0 {
		parent := (i - 1) / 2
		p := heap[parent]
		if !s.before(p) {
			break
		}
		heap[i] = p
		pos[p.item] = int32(i)
		i = parent
	}
	heap[i] = s
	pos[s.item] = int32(i)
}

// down refills the hole at the root with s, the slot leaving position n:
// the smaller child moves up into the hole while it precedes s, and s is
// written once where the hole stops. Slots at n and beyond are ignored.
func (h *IndexedHeap) down(s heapSlot, n int) {
	heap, pos := h.heap[:n], h.pos
	i := uint(0)
	for {
		child := 2*i + 1
		if child >= uint(len(heap)) {
			break
		}
		c := heap[child]
		if right := child + 1; right < uint(len(heap)) {
			if r := heap[right]; r.before(c) {
				child, c = right, r
			}
		}
		if !c.before(s) {
			break
		}
		heap[i] = c
		pos[c.item] = int32(i)
		i = child
	}
	heap[i] = s
	pos[s.item] = int32(i)
}
