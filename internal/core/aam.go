package core

import "ltc/internal/model"

// AAM is the Average And Maximum hybrid online algorithm (Algorithm 3),
// inspired by McNaughton's rule: the makespan is driven by both the average
// load and the single longest job. Per arriving worker it computes
//
//	avg = Σ_t (δ − S[t]) / K   and   maxRemain = max_t (δ − S[t])
//
// and scores candidate tasks by gain min{Acc*(w,t), δ − S[t]} (LGF) when
// avg ≥ maxRemain, or by remaining need δ − S[t] (LRF) otherwise.
// Competitive ratio 7.738 under the paper's assumptions (Theorem 6).
type AAM struct {
	solver
	scan
}

// NewAAM returns a fresh AAM solver. Equal scores go to the lower TaskID,
// matching Example 4's walk-through.
func NewAAM(in *model.Instance, ci *model.CandidateIndex) *AAM {
	return &AAM{solver: newSolver(in), scan: newScan(in, ci)}
}

// Name implements Online.
func (a *AAM) Name() string { return "AAM" }

// Arrive implements Online (Algorithm 3 lines 4-15).
func (a *AAM) Arrive(w model.Worker) []Outcome {
	if !a.begin() {
		return nil
	}
	useLGF := a.state.lgfDominates(a.in.K)
	for a.walk(w); a.q.Next(); {
		if a.state.done(a.q.Task) {
			continue
		}
		c, ok := a.q.Candidate()
		if !ok {
			a.lost()
			continue
		}
		score := a.state.need(c.Task) // LRF: δ − S[t]
		if useLGF {
			if a.full() && c.AccStar < a.top[0].score {
				a.lost()
				continue
			}
			if c.AccStar < score {
				score = c.AccStar // LGF: min{Acc*, δ − S[t]}
			}
		}
		a.offer(scored{Candidate: c, score: score})
		if a.full() { // no score exceeds the need: floor the walk at the bar
			a.q.Floor(a.state.arr.Accumulated, a.state.delta, a.top[0].score)
		}
	}
	for _, c := range a.top {
		a.grant(w, c.Candidate)
	}
	return a.out
}
