package core

import (
	"ltc/internal/model"
	"ltc/internal/pqueue"
)

// LAF is the Largest Acc* First online algorithm (Algorithm 2). For every
// arriving worker it assigns the K eligible, still-uncompleted tasks with
// the largest Acc*(w, t), maintained in a bounded top-K heap. Competitive
// ratio 7.967 under the paper's assumptions (Theorem 5).
type LAF struct {
	solver
	scan
	topk *pqueue.TopK[model.Candidate]
}

// NewLAF returns a fresh LAF solver for the instance.
func NewLAF(in *model.Instance, ci *model.CandidateIndex) *LAF {
	return &LAF{
		solver: newSolver(in),
		scan:   newScan(in, ci),
		// Rank candidates by Acc*; ties keep the first-seen task (lower
		// TaskID), matching the paper's Example 3 walk-through.
		topk: pqueue.NewTopK(in.K, func(a, b model.Candidate) bool {
			return a.AccStar < b.AccStar
		}),
	}
}

// Name implements Online.
func (l *LAF) Name() string { return "LAF" }

// Arrive implements Online (Algorithm 2 lines 4-10).
func (l *LAF) Arrive(w model.Worker) []Outcome {
	if !l.begin() {
		return nil
	}
	l.topk.Reset()
	for l.walk(w); l.q.Next(); {
		if l.state.done(l.q.Task) {
			continue
		}
		c, ok := l.q.Candidate()
		if !ok {
			l.lost()
			continue
		}
		if bar, full := l.topk.Bar(); full && c.AccStar <= bar.AccStar {
			l.lost()
			continue
		}
		l.topk.Offer(c)
	}
	for l.topk.Len() > 0 {
		l.grant(w, l.topk.PopMin())
	}
	return l.out
}
