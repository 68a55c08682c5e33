package flow

import (
	"math/rand"
	"testing"
)

func TestIndexedMinHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("popMin on empty indexedMinHeap did not panic")
		}
	}()
	newIndexedMinHeap(4).popMin()
}

func TestIndexedMinHeapBasic(t *testing.T) {
	h := newIndexedMinHeap(8)
	h.pushOrDecrease(3, 5.0)
	h.pushOrDecrease(1, 2.0)
	h.pushOrDecrease(7, 9.0)
	id, prio := h.popMin()
	if id != 1 || prio != 2.0 {
		t.Fatalf("popMin = (%d, %v), want (1, 2.0)", id, prio)
	}
	if !h.queued(3) || h.queued(1) {
		t.Fatal("queue bookkeeping wrong after popMin")
	}
}

func TestIndexedMinHeapDecreaseKey(t *testing.T) {
	h := newIndexedMinHeap(4)
	h.pushOrDecrease(0, 10)
	h.pushOrDecrease(1, 20)
	if !h.pushOrDecrease(1, 5) {
		t.Fatal("decrease to lower priority must succeed")
	}
	if h.pushOrDecrease(1, 7) {
		t.Fatal("increase must be a rejected no-op")
	}
	id, prio := h.popMin()
	if id != 1 || prio != 5 {
		t.Fatalf("popMin = (%d, %v), want (1, 5)", id, prio)
	}
}

func TestIndexedMinHeapReset(t *testing.T) {
	h := newIndexedMinHeap(4)
	h.pushOrDecrease(2, 1)
	h.reset()
	if h.len() != 0 || h.queued(2) {
		t.Fatal("reset did not clear the heap")
	}
	h.pushOrDecrease(2, 3)
	id, _ := h.popMin()
	if id != 2 {
		t.Fatalf("popMin after reset = %d, want 2", id)
	}
}

// Property: indexedMinHeap with random decrease-key operations pops ids in
// nondecreasing priority order.
func TestIndexedMinHeapOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50) + 1
		h := newIndexedMinHeap(n)
		for i := 0; i < n; i++ {
			h.pushOrDecrease(i, rng.Float64()*100)
		}
		for i := 0; i < n/2; i++ {
			id := rng.Intn(n)
			if h.queued(id) {
				h.pushOrDecrease(id, h.prio[id]*rng.Float64())
			}
		}
		prev := -1.0
		for h.len() > 0 {
			_, prio := h.popMin()
			if prio < prev {
				t.Fatalf("trial %d: priorities out of order: %v after %v", trial, prio, prev)
			}
			prev = prio
		}
	}
}

// queued reports whether node id is in h.
func (h *indexedMinHeap) queued(id int) bool { return h.pos[id] >= 0 }
