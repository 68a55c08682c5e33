package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"ltc/internal/model"
)

// scoredAt is a candidate for task id with the given score.
func scoredAt(id int, score float64) scored {
	return scored{Candidate: model.Candidate{Task: model.TaskID(id)}, score: score}
}

// TestTopKProperty: whatever order the same candidates are offered in, bestK
// ends with the same contents in the same order — the strongest cap of them
// by weaker, weakest first, as sorting them all says. Scores come from a
// small set, so ties on score are common and TaskID decides them.
func TestTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	for trial := 0; trial < 300; trial++ {
		all := make([]scored, rng.IntN(20))
		for i, id := range rng.Perm(len(all)) {
			all[i] = scoredAt(id, float64(rng.IntN(4)))
		}
		k := 1 + rng.IntN(6)
		want := slices.SortedFunc(slices.Values(all), byWeaker)
		want = want[max(0, len(want)-k):]
		for perm := 0; perm < 5; perm++ {
			q := newBestK(k)
			for _, i := range rng.Perm(len(all)) {
				q.offer(all[i])
			}
			if !slices.Equal(q.top, want) {
				t.Fatalf("trial %d, k %d: kept %v, want %v", trial, k, q.top, want)
			}
			q.reset()
			if len(q.top) != 0 || cap(q.top) != k {
				t.Fatalf("reset left len %d cap %d, want 0 and %d", len(q.top), cap(q.top), k)
			}
		}
	}
}

// TestTopKKeepsLargest: of seven offers bestK of capacity 3 keeps the three
// highest scores, weakest first.
func TestTopKKeepsLargest(t *testing.T) {
	q := newBestK(3)
	for i, v := range []float64{5, 1, 9, 3, 7, 2, 8} {
		q.offer(scoredAt(i, v))
	}
	if want := []scored{scoredAt(4, 7), scoredAt(6, 8), scoredAt(2, 9)}; !slices.Equal(q.top, want) {
		t.Fatalf("kept %v, want %v", q.top, want)
	}
}

// TestTopKFewerThanK: with fewer offers than its capacity bestK keeps them
// all, weakest first, and is not full.
func TestTopKFewerThanK(t *testing.T) {
	q := newBestK(10)
	q.offer(scoredAt(0, 4))
	q.offer(scoredAt(1, 2))
	if want := []scored{scoredAt(1, 2), scoredAt(0, 4)}; !slices.Equal(q.top, want) || q.full() {
		t.Fatalf("kept %v (full %t), want %v and not full", q.top, q.full(), want)
	}
}

// TestTopKOfferReportsRetention: offers are kept while there is room; once
// full, an offer weaker than every kept one is dropped and a stronger one
// evicts the weakest.
func TestTopKOfferReportsRetention(t *testing.T) {
	q := newBestK(2)
	for _, c := range []scored{scoredAt(0, 1), scoredAt(1, 2)} {
		if q.offer(c); !slices.Contains(q.top, c) {
			t.Fatalf("offer %v below capacity not kept: %v", c, q.top)
		}
	}
	if q.offer(scoredAt(2, 0)); slices.Contains(q.top, scoredAt(2, 0)) {
		t.Fatalf("offer weaker than all kept was kept: %v", q.top)
	}
	if q.offer(scoredAt(3, 5)); !slices.Contains(q.top, scoredAt(3, 5)) {
		t.Fatalf("offer stronger than the weakest kept was dropped: %v", q.top)
	}
	if want := []scored{scoredAt(1, 2), scoredAt(3, 5)}; !slices.Equal(q.top, want) {
		t.Fatalf("kept %v, want %v", q.top, want)
	}
}

// TestTopKBar: bestK is not full while there is room; once full, top[0] is
// the bar, an offer is kept exactly when the bar is weaker than it, and the
// bar never falls. The scan's lost() relies on the last two.
func TestTopKBar(t *testing.T) {
	q := newBestK(3)
	for _, c := range []scored{scoredAt(0, 4), scoredAt(1, 9)} {
		q.offer(c)
		if q.full() {
			t.Fatalf("full with %d of 3 kept", len(q.top))
		}
	}
	q.offer(scoredAt(2, 6))
	last := q.top[0]
	for i, c := range []scored{scoredAt(3, 4), scoredAt(4, 3), scoredAt(5, 5), scoredAt(6, 5), scoredAt(7, 20), scoredAt(8, 6), scoredAt(9, 7), scoredAt(10, 1)} {
		bar := q.top[0]
		if !q.full() || weaker(bar, last) {
			t.Fatalf("offer %d: bar %v (full %t) after bar %v", i, bar, q.full(), last)
		}
		q.offer(c)
		if kept := slices.Contains(q.top, c); kept != weaker(bar, c) {
			t.Fatalf("offer %v against bar %v: kept %t", c, bar, kept)
		}
		last = bar
	}
	if want := []scored{scoredAt(9, 7), scoredAt(1, 9), scoredAt(7, 20)}; !slices.Equal(q.top, want) {
		t.Fatalf("kept %v, want %v", q.top, want)
	}
}

// TestBaseOffTieToLowerTaskID: K = 2 and the first worker is eligible for
// three open tasks; t0 and t1 each have two eligible workers still to come,
// t2 none. Base-off keeps the scarcest, t2, and of the equally scarce t0 and
// t1 the lower TaskID, weakest first. (A binary heap of the two kept t1: its
// root held t0 when t2 arrived.)
func TestBaseOffTieToLowerTaskID(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.2,
		K:       2,
		MinAcc:  0.66,
		Model: model.MatrixAccuracy{Vals: [][]float64{
			{0.9, 0.9, 0.9},
			{0.9, 0.9, 0.9},
			{0.9, 0, 0},
		}},
	}
	for id := range 3 {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(id)})
	}
	for i := 1; i <= 3; i++ {
		in.Workers = append(in.Workers, model.Worker{Index: i, Acc: 0.9})
	}
	arr, err := BaseOff{}.Solve(in, model.NewCandidateIndex(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Assignment{{Worker: 1, Task: 0}, {Worker: 1, Task: 2}}
	if len(arr.Pairs) < 2 || !slices.Equal(arr.Pairs[:2], want) {
		t.Fatalf("first worker granted %v, want %v", arr.Pairs, want)
	}
}

// TestMCFTopUpTieToLowerTaskID: K = 2, ε = 0.7 (δ ≈ 0.713, so every task
// asks the flow for one worker), one batch of two workers. The flow gives
// w2 (Acc* 0.64) t1 and t2 and w1 (Acc* 0.36 everywhere) t0, which leaves w1
// one slot, below K, and two open tasks it ties on. The top-up must take the
// lower TaskID, t1. (A binary heap of capacity K trimmed to one popped its
// root, t1, and kept t2.)
func TestMCFTopUpTieToLowerTaskID(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.7,
		K:       2,
		MinAcc:  0.66,
		Model: model.MatrixAccuracy{Vals: [][]float64{
			{0.8, 0},
			{0.8, 0.9},
			{0.8, 0.9},
		}},
	}
	for id := range 3 {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(id)})
	}
	for i := 1; i <= 2; i++ {
		in.Workers = append(in.Workers, model.Worker{Index: i, Acc: 0.9})
	}
	arr, err := (&MCFLTC{}).Solve(in, model.NewCandidateIndex(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Assignment{{Worker: 1, Task: 0}, {Worker: 2, Task: 1}, {Worker: 2, Task: 2}, {Worker: 1, Task: 1}}
	if !slices.Equal(arr.Pairs, want) {
		t.Fatalf("pairs %v, want the flow's three then w1's top-up %v", arr.Pairs, want)
	}
}
