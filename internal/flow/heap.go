package flow

// indexedMinHeap is a min-heap over node ids 0..n-1 with float64 priorities
// and decrease-key, the queue of MinCostFlow's Dijkstra. Node ids are unique
// within the heap.
type indexedMinHeap struct {
	ids  []int32   // heap order -> node id
	pos  []int32   // node id -> heap position, -1 if absent
	prio []float64 // node id -> priority
}

// newIndexedMinHeap returns an empty indexed heap for node ids < n.
func newIndexedMinHeap(n int) *indexedMinHeap {
	h := &indexedMinHeap{
		ids:  make([]int32, 0, n),
		pos:  make([]int32, n),
		prio: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// len reports the number of queued node ids.
func (h *indexedMinHeap) len() int { return len(h.ids) }

// pushOrDecrease inserts id with the given priority, or lowers its priority
// if it is already queued with a higher one. Returns false when id is queued
// with an equal or lower priority already (no-op).
func (h *indexedMinHeap) pushOrDecrease(id int, priority float64) bool {
	if p := h.pos[id]; p >= 0 {
		if priority >= h.prio[id] {
			return false
		}
		h.prio[id] = priority
		h.up(int(p))
		return true
	}
	h.prio[id] = priority
	h.pos[id] = int32(len(h.ids))
	h.ids = append(h.ids, int32(id))
	h.up(len(h.ids) - 1)
	return true
}

// popMin removes and returns the queued id with the smallest priority.
// It panics when empty.
func (h *indexedMinHeap) popMin() (id int, priority float64) {
	if len(h.ids) == 0 {
		panic("flow: popMin on empty indexedMinHeap")
	}
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.pos[h.ids[0]] = 0
	h.ids = h.ids[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return int(top), h.prio[top]
}

// reset empties the heap, retaining capacity. O(queued) — it only clears
// positions of ids still queued.
func (h *indexedMinHeap) reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
}

func (h *indexedMinHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[h.ids[i]] >= h.prio[h.ids[parent]] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *indexedMinHeap) down(i int) {
	n := len(h.ids)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && h.prio[h.ids[right]] < h.prio[h.ids[left]] {
			best = right
		}
		if h.prio[h.ids[best]] >= h.prio[h.ids[i]] {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *indexedMinHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}
