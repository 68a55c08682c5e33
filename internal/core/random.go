package core

import (
	"math/rand/v2"

	"ltc/internal/model"
	"ltc/internal/stats"
)

// Random is the naive online baseline of the evaluation (§V-A): when a
// worker arrives, up to K of the nearby (eligible) uncompleted tasks are
// assigned uniformly at random.
type Random struct {
	solver
	ci    *model.CandidateIndex
	cands []model.Candidate
	rng   *rand.Rand
}

// NewRandom returns a fresh Random solver seeded deterministically.
func NewRandom(in *model.Instance, ci *model.CandidateIndex, seed uint64) *Random {
	return &Random{solver: newSolver(in), ci: ci, rng: stats.NewRand(seed)}
}

// Name implements Online.
func (r *Random) Name() string { return "Random" }

// Arrive implements Online.
func (r *Random) Arrive(w model.Worker) []Outcome {
	if !r.begin() {
		return nil
	}
	// Every eligible task can be drawn, so the query evaluates them all.
	r.cands = r.ci.Candidates(w, r.cands[:0])
	// Compact to uncompleted candidates in place.
	open := r.cands[:0]
	for _, c := range r.cands {
		if !r.state.done(c.Task) {
			open = append(open, c)
		}
	}
	// Partial Fisher-Yates: draw min(K, len) without replacement.
	k := r.in.K
	if k > len(open) {
		k = len(open)
	}
	for i := 0; i < k; i++ {
		j := i + r.rng.IntN(len(open)-i)
		open[i], open[j] = open[j], open[i]
		r.grant(w, open[i])
	}
	return r.out
}
