package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdersAscending(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		h.Push(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	for want := 0; want < len(in); want++ {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after draining: Len = %d", h.Len())
	}
}

func TestHeapPeekDoesNotRemove(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	h.Push(2)
	h.Push(1)
	if got := h.Peek(); got != 1 {
		t.Fatalf("Peek = %d, want 1", got)
	}
	if h.Len() != 2 {
		t.Fatalf("Peek removed an element: Len = %d", h.Len())
	}
}

func TestHeapDuplicates(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	for _, v := range []int{3, 3, 1, 1, 2, 2} {
		h.Push(v)
	}
	got := []int{}
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	want := []int{1, 1, 2, 2, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	NewHeap(func(a, b int) bool { return a < b }).Pop()
}

func TestIndexedMinHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopMin on empty IndexedMinHeap did not panic")
		}
	}()
	NewIndexedMinHeap(4).PopMin()
}

func TestHeapPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Peek on empty heap did not panic")
		}
	}()
	NewHeap(func(a, b int) bool { return a < b }).Peek()
}

func TestHeapReset(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	h.Push(1)
	h.Push(2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	h.Push(7)
	if got := h.Pop(); got != 7 {
		t.Fatalf("Pop after Reset = %d, want 7", got)
	}
}

// Property: draining a heap always yields the sorted input, for arbitrary
// inputs including duplicates and negatives.
func TestHeapSortProperty(t *testing.T) {
	prop := func(in []int16) bool {
		h := NewHeap(func(a, b int16) bool { return a < b })
		for _, v := range in {
			h.Push(v)
		}
		out := make([]int16, 0, len(in))
		for h.Len() > 0 {
			out = append(out, h.Pop())
		}
		if len(out) != len(in) {
			return false
		}
		want := append([]int16(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop maintains the invariant that Pop returns
// the minimum of the current contents.
func TestHeapInterleavedProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		h := NewHeap(func(a, b int16) bool { return a < b })
		var mirror []int16
		for _, op := range ops {
			if op%3 == 0 && len(mirror) > 0 {
				// pop and compare against mirror minimum
				mi := 0
				for i, v := range mirror {
					if v < mirror[mi] {
						mi = i
					}
				}
				if got := h.Pop(); got != mirror[mi] {
					return false
				}
				mirror = append(mirror[:mi], mirror[mi+1:]...)
			} else {
				h.Push(op)
				mirror = append(mirror, op)
			}
		}
		return h.Len() == len(mirror)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	tk := NewTopK(3, func(a, b int) bool { return a < b })
	for _, v := range []int{5, 1, 9, 3, 7, 2, 8} {
		tk.Offer(v)
	}
	got := drain(tk)
	want := []int{7, 8, 9} // ascending drain of the 3 largest
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestTopKOfferReportsRetention(t *testing.T) {
	tk := NewTopK(2, func(a, b int) bool { return a < b })
	if !tk.Offer(1) || !tk.Offer(2) {
		t.Fatal("offers below capacity must be retained")
	}
	if tk.Offer(0) {
		t.Fatal("offer weaker than all retained must be rejected")
	}
	if !tk.Offer(5) {
		t.Fatal("offer stronger than the weakest retained must be accepted")
	}
	got := drain(tk)
	if got[0] != 2 || got[1] != 5 {
		t.Fatalf("drained %v, want [2 5]", got)
	}
}

// TestTopKBar: there is no bar while there is room; once full the bar is the
// weakest retained element, an offer is kept exactly when it beats the bar,
// and the bar never falls.
func TestTopKBar(t *testing.T) {
	tk := NewTopK(3, func(a, b int) bool { return a < b })
	for _, v := range []int{4, 9} {
		tk.Offer(v)
		if _, full := bar(tk); full {
			t.Fatalf("bar reported with %d of 3 retained", tk.Len())
		}
	}
	tk.Offer(6)
	last := 4
	for _, v := range []int{4, 3, 5, 5, 20, 6, 7, 1} {
		b, full := bar(tk)
		if !full || b < last {
			t.Fatalf("bar %d (full %t) after bar %d", b, full, last)
		}
		if kept := tk.Offer(v); kept != (v > b) {
			t.Fatalf("offer %d against bar %d: kept %t", v, b, kept)
		}
		last = b
	}
	if b, _ := bar(tk); b != 7 {
		t.Fatalf("final bar %d, want 7", b)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10, func(a, b int) bool { return a < b })
	tk.Offer(4)
	tk.Offer(2)
	got := drain(tk)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("drained %v, want [2 4]", got)
	}
}

func TestTopKZeroKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0, func(a, b int) bool { return a < b })
}

// Property: TopK retains exactly the k largest values of the input.
func TestTopKProperty(t *testing.T) {
	prop := func(in []int16, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		tk := NewTopK(k, func(a, b int16) bool { return a < b })
		for _, v := range in {
			tk.Offer(v)
		}
		got := drain(tk)
		want := append([]int16(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(in) > k {
			want = want[len(in)-k:]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedMinHeapBasic(t *testing.T) {
	h := NewIndexedMinHeap(8)
	h.PushOrDecrease(3, 5.0)
	h.PushOrDecrease(1, 2.0)
	h.PushOrDecrease(7, 9.0)
	id, prio := h.PopMin()
	if id != 1 || prio != 2.0 {
		t.Fatalf("PopMin = (%d, %v), want (1, 2.0)", id, prio)
	}
	if !h.queued(3) || h.queued(1) {
		t.Fatal("queue bookkeeping wrong after PopMin")
	}
}

func TestIndexedMinHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.PushOrDecrease(0, 10)
	h.PushOrDecrease(1, 20)
	if !h.PushOrDecrease(1, 5) {
		t.Fatal("decrease to lower priority must succeed")
	}
	if h.PushOrDecrease(1, 7) {
		t.Fatal("increase must be a rejected no-op")
	}
	id, prio := h.PopMin()
	if id != 1 || prio != 5 {
		t.Fatalf("PopMin = (%d, %v), want (1, 5)", id, prio)
	}
}

func TestIndexedMinHeapReset(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.PushOrDecrease(2, 1)
	h.Reset()
	if h.Len() != 0 || h.queued(2) {
		t.Fatal("Reset did not clear the heap")
	}
	h.PushOrDecrease(2, 3)
	id, _ := h.PopMin()
	if id != 2 {
		t.Fatalf("PopMin after Reset = %d, want 2", id)
	}
}

// Property: IndexedMinHeap with random decrease-key operations pops ids in
// nondecreasing priority order.
func TestIndexedMinHeapOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50) + 1
		h := NewIndexedMinHeap(n)
		for i := 0; i < n; i++ {
			h.PushOrDecrease(i, rng.Float64()*100)
		}
		for i := 0; i < n/2; i++ {
			id := rng.Intn(n)
			if h.queued(id) {
				h.PushOrDecrease(id, h.prio[id]*rng.Float64())
			}
		}
		prev := -1.0
		for h.Len() > 0 {
			_, prio := h.PopMin()
			if prio < prev {
				t.Fatalf("trial %d: priorities out of order: %v after %v", trial, prio, prev)
			}
			prev = prio
		}
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	h := NewHeap(func(a, b int) bool { return a < b })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Push(i ^ 0x5555)
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}

func BenchmarkTopKOffer(b *testing.B) {
	tk := NewTopK(8, func(a, b int) bool { return a < b })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Offer(i % 9973)
	}
}

// drain empties t with PopMin and returns the retained elements in ascending
// order.
func drain[T any](t *TopK[T]) []T {
	var out []T
	for t.Len() > 0 {
		out = append(out, t.PopMin())
	}
	return out
}

// bar returns t's weakest retained element once t is full: from then on
// Offer keeps only an element strictly better than it, and the bar never
// falls. ok is false while there is still room and every offer is kept.
func bar[T any](t *TopK[T]) (x T, ok bool) {
	if t.Len() < t.k {
		return x, false
	}
	return t.h.Peek(), true
}

// queued reports whether node id is in h.
func (h *IndexedMinHeap) queued(id int) bool { return h.pos[id] >= 0 }
