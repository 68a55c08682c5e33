package core

import (
	"ltc/internal/model"
	"ltc/internal/pqueue"
)

// AAMStrategy selects the scoring rule AAM uses for an arriving worker.
type AAMStrategy int

const (
	// StrategyHybrid is Algorithm 3 as published: Largest Gain First while
	// the average demand dominates, Largest Remaining First once single
	// difficult tasks become the bottleneck.
	StrategyHybrid AAMStrategy = iota
	// StrategyLGFOnly always scores by gain (ablation).
	StrategyLGFOnly
	// StrategyLRFOnly always scores by remaining need (ablation).
	StrategyLRFOnly
)

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
	strategy AAMStrategy
	topk     *pqueue.TopK[scoredCandidate]

	// lgfArrivals / lrfArrivals count strategy choices; the switching
	// rule's tests read them.
	lgfArrivals int
	lrfArrivals int
}

type scoredCandidate struct {
	model.Candidate
	score float64
}

// NewAAM returns a fresh AAM solver with the published hybrid strategy.
func NewAAM(in *model.Instance, ci *model.CandidateIndex) *AAM {
	return NewAAMWithStrategy(in, ci, StrategyHybrid)
}

// NewAAMWithStrategy returns an AAM solver with an explicit strategy,
// used by the LGF/LRF ablation benchmarks.
func NewAAMWithStrategy(in *model.Instance, ci *model.CandidateIndex, s AAMStrategy) *AAM {
	return &AAM{
		solver:   newSolver(in),
		scan:     newScan(in, ci),
		strategy: s,
		// Ties keep the first-seen task, matching Example 4's walk-through.
		topk: pqueue.NewTopK(in.K, func(a, b scoredCandidate) bool {
			return a.score < b.score
		}),
	}
}

// Name implements Online.
func (a *AAM) Name() string {
	switch a.strategy {
	case StrategyLGFOnly:
		return "AAM-LGF"
	case StrategyLRFOnly:
		return "AAM-LRF"
	default:
		return "AAM"
	}
}

// Arrive implements Online (Algorithm 3 lines 4-15).
func (a *AAM) Arrive(w model.Worker) []Outcome {
	if !a.begin() {
		return nil
	}
	useLGF := true
	switch a.strategy {
	case StrategyLGFOnly:
		useLGF = true
	case StrategyLRFOnly:
		useLGF = false
	default:
		useLGF = a.state.lgfDominates(a.in.K)
	}
	if useLGF {
		a.lgfArrivals++
	} else {
		a.lrfArrivals++
	}

	a.topk.Reset()
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
			if bar, full := a.topk.Bar(); full && c.AccStar <= bar.score {
				a.lost()
				continue
			}
			if c.AccStar < score {
				score = c.AccStar // LGF: min{Acc*, δ − S[t]}
			}
		}
		a.topk.Offer(scoredCandidate{Candidate: c, score: score})
	}
	for a.topk.Len() > 0 {
		a.grant(w, a.topk.PopMin().Candidate)
	}
	return a.out
}
