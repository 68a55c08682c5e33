package core

import "ltc/internal/model"

// BaseOff is the offline baseline of the evaluation (§V-A): it walks the
// worker sequence in arrival order and greedily assigns each worker the
// uncompleted nearby tasks with the fewest remaining eligible workers —
// scarcity-first, exploiting the offline knowledge of future supply. Of two
// equally scarce tasks it takes the lower TaskID (see bestK).
type BaseOff struct{}

// Name implements Offline.
func (BaseOff) Name() string { return "Base-off" }

// Solve implements Offline.
func (BaseOff) Solve(in *model.Instance, ci *model.CandidateIndex) (*model.Arrangement, error) {
	state := newTaskState(len(in.Tasks), in.Delta())

	// Offline knowledge: for every task the ascending arrival indices of
	// its eligible workers; ptr[t] advances as those workers arrive, so
	// len(list) - ptr is the remaining future supply.
	lists := ci.EligibleWorkerLists()
	ptr := make([]int, len(in.Tasks))

	// Keep the K scarcest candidates: score by −(remaining supply), so the
	// weakest kept is the one with the most supply left.
	q := newBestK(in.K)
	var cands []model.Candidate

	for _, w := range in.Workers {
		if state.allDone() {
			break
		}
		cands = ci.Candidates(w, cands[:0])
		q.reset()
		for _, c := range cands {
			// w is by construction the next unarrived entry of c.Task's
			// eligible list; consume it.
			ptr[c.Task]++
			if state.done(c.Task) {
				continue
			}
			q.offer(scored{Candidate: c, score: -float64(len(lists[c.Task]) - ptr[c.Task])})
		}
		for _, c := range q.top {
			state.add(w.Index, c.Task, c.AccStar)
		}
	}
	return &state.arr, nil
}
