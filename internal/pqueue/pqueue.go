// Package pqueue provides the priority-queue primitives used across the LTC
// implementation: a generic binary heap, a bounded top-K heap (the heap "Q"
// of Algorithms 1-3 in the paper) and an indexed min-heap keyed by node id
// for Dijkstra with decrease-key.
//
// All structures are allocation-conscious: they reuse backing slices and
// never allocate per operation beyond amortised slice growth.
package pqueue

// Heap is a generic binary heap. The less function defines the heap order:
// the element x for which less(x, y) holds for all other y is at the top.
// The zero value is not usable; construct with NewHeap.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements currently in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap in O(log n).
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the top element without removing it. It panics on an empty
// heap; callers must check Len first.
func (h *Heap[T]) Peek() T {
	if len(h.items) == 0 {
		panic("pqueue: Peek on empty heap")
	}
	return h.items[0]
}

// Pop removes and returns the top element in O(log n). It panics on an
// empty heap; callers must check Len first.
func (h *Heap[T]) Pop() T {
	if len(h.items) == 0 {
		panic("pqueue: Pop on empty heap")
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Reset empties the heap while keeping the backing slice for reuse.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			best = right
		}
		if !h.less(h.items[best], h.items[i]) {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// TopK keeps the k largest elements (by less, where less defines "smaller")
// seen so far. It is the heap Q of the paper's Algorithms 1-3: each worker
// scans the candidate tasks, offers each one to the heap, and the heap keeps
// only the best K under the worker's capacity.
//
// Internally it is a min-heap of at most k elements: the top is the weakest
// of the current best k, so an offer beating it replaces it in O(log k).
type TopK[T any] struct {
	h *Heap[T]
	k int
}

// NewTopK returns a collector for the k largest elements under less
// (less(a,b) means a ranks below b). k must be positive.
func NewTopK[T any](k int, less func(a, b T) bool) *TopK[T] {
	if k <= 0 {
		panic("pqueue: TopK requires k > 0")
	}
	return &TopK[T]{h: NewHeap(less), k: k}
}

// Offer proposes x. It returns true if x was retained among the current
// best k (possibly evicting the previous weakest element).
func (t *TopK[T]) Offer(x T) bool {
	if t.h.Len() < t.k {
		t.h.Push(x)
		return true
	}
	if t.h.less(t.h.Peek(), x) {
		t.h.Pop()
		t.h.Push(x)
		return true
	}
	return false
}

// Bar returns the weakest retained element once the collector is full: from
// then on Offer keeps only an element strictly better than it, and the bar
// never falls. ok is false while there is still room and every offer is kept.
func (t *TopK[T]) Bar() (x T, ok bool) {
	if t.h.Len() < t.k {
		return x, false
	}
	return t.h.Peek(), true
}

// Len reports how many elements are currently retained (≤ k).
func (t *TopK[T]) Len() int { return t.h.Len() }

// PopMin removes and returns the weakest retained element. Draining the
// collector with PopMin yields the retained elements in ascending order.
func (t *TopK[T]) PopMin() T { return t.h.Pop() }

// Drain empties the collector, appending the retained elements to dst in
// ascending order, and returns the extended slice.
func (t *TopK[T]) Drain(dst []T) []T {
	for t.h.Len() > 0 {
		dst = append(dst, t.h.Pop())
	}
	return dst
}

// Reset empties the collector while keeping its capacity k.
func (t *TopK[T]) Reset() { t.h.Reset() }

// IndexedMinHeap is a min-heap over node ids 0..n-1 with float64 priorities
// and decrease-key support, as required by Dijkstra's algorithm inside the
// min-cost-flow solver. Node ids must be unique within the heap.
type IndexedMinHeap struct {
	ids  []int32   // heap order -> node id
	pos  []int32   // node id -> heap position, -1 if absent
	prio []float64 // node id -> priority
}

// NewIndexedMinHeap returns an empty indexed heap for node ids < n.
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		ids:  make([]int32, 0, n),
		pos:  make([]int32, n),
		prio: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued node ids.
func (h *IndexedMinHeap) Len() int { return len(h.ids) }

// Contains reports whether node id is currently queued.
func (h *IndexedMinHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Priority returns the priority most recently set for id. Meaningful only
// if the id has been pushed since the last Reset.
func (h *IndexedMinHeap) Priority(id int) float64 { return h.prio[id] }

// PushOrDecrease inserts id with the given priority, or lowers its priority
// if it is already queued with a higher one. Returns false when id is queued
// with an equal or lower priority already (no-op).
func (h *IndexedMinHeap) PushOrDecrease(id int, priority float64) bool {
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

// PopMin removes and returns the queued id with the smallest priority.
// It panics when empty.
func (h *IndexedMinHeap) PopMin() (id int, priority float64) {
	if len(h.ids) == 0 {
		panic("pqueue: PopMin on empty IndexedMinHeap")
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

// Reset empties the heap, retaining capacity. O(queued) — it only clears
// positions of ids still queued.
func (h *IndexedMinHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
}

func (h *IndexedMinHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[h.ids[i]] >= h.prio[h.ids[parent]] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedMinHeap) down(i int) {
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

func (h *IndexedMinHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}
