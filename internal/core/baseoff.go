package core

import (
	"ltc/internal/model"
	"ltc/internal/pqueue"
)

// BaseOff is the offline baseline of the evaluation (§V-A): it walks the
// worker sequence in arrival order and greedily assigns each worker the
// uncompleted nearby tasks with the fewest remaining eligible workers —
// scarcity-first, exploiting the offline knowledge of future supply.
type BaseOff struct{}

// Name implements Offline.
func (BaseOff) Name() string { return "Base-off" }

type scarceCandidate struct {
	model.Candidate
	remaining int // eligible workers still to arrive for this task
}

// Solve implements Offline.
func (BaseOff) Solve(in *model.Instance, ci *model.CandidateIndex) (*model.Arrangement, error) {
	state := newTaskState(len(in.Tasks), in.Delta())

	// Offline knowledge: for every task the ascending arrival indices of
	// its eligible workers; ptr[t] advances as those workers arrive, so
	// len(list) - ptr is the remaining future supply.
	lists := ci.EligibleWorkerLists()
	ptr := make([]int, len(in.Tasks))

	// Keep the K scarcest candidates: the retained set's weakest element is
	// the one with the LARGEST remaining supply.
	topk := pqueue.NewTopK(in.K, func(a, b scarceCandidate) bool {
		return a.remaining > b.remaining
	})
	var cands []model.Candidate

	for _, w := range in.Workers {
		if state.allDone() {
			break
		}
		cands = ci.Candidates(w, cands[:0])
		topk.Reset()
		for _, c := range cands {
			// w is by construction the next unarrived entry of c.Task's
			// eligible list; consume it.
			ptr[c.Task]++
			if state.done(c.Task) {
				continue
			}
			topk.Offer(scarceCandidate{
				Candidate: c,
				remaining: len(lists[c.Task]) - ptr[c.Task],
			})
		}
		for topk.Len() > 0 {
			c := topk.PopMin()
			state.add(w.Index, c.Task, c.AccStar)
		}
	}
	return &state.arr, nil
}
