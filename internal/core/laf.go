package core

import "ltc/internal/model"

// LAF is the Largest Acc* First online algorithm (Algorithm 2). For every
// arriving worker it assigns the K eligible, still-uncompleted tasks with
// the largest Acc*(w, t), kept in scan's top K (the paper's heap Q).
// Competitive ratio 7.967 under the paper's assumptions (Theorem 5).
type LAF struct {
	solver
	scan
}

// NewLAF returns a fresh LAF solver for the instance. It ranks candidates
// by Acc*, ties to the lower TaskID, matching the paper's Example 3
// walk-through.
func NewLAF(in *model.Instance, ci *model.CandidateIndex) *LAF {
	return &LAF{solver: newSolver(in), scan: newScan(in, ci)}
}

// Name implements Online.
func (l *LAF) Name() string { return "LAF" }

// Arrive implements Online (Algorithm 2 lines 4-10).
func (l *LAF) Arrive(w model.Worker) []Outcome {
	if !l.begin() {
		return nil
	}
	for l.walk(w); l.q.Next(); {
		if l.state.done(l.q.Task) {
			continue
		}
		c, ok := l.q.Candidate()
		if !ok || l.full() && c.AccStar < l.top[0].score {
			l.lost()
			continue
		}
		l.offer(scored{Candidate: c, score: c.AccStar})
	}
	for _, c := range l.top {
		l.grant(w, c.Candidate)
	}
	return l.out
}
