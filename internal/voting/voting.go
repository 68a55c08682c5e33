// Package voting simulates the quality side of the LTC model end to end:
// binary ground truth, worker answers sampled with probability Acc(w,t) of
// being correct, and the weighted majority vote of Definition 4:
//
//	ℓ_t = sign( Σ_{w∈W_t} weight_{w,t} · ℓ_{w,t} ),  weight = 2·Acc(w,t) − 1
//
// By Hoeffding's inequality, once Σ (2·Acc − 1)² ≥ δ = 2·ln(1/ε) the vote's
// error probability is below ε — the completion rule every LTC algorithm
// enforces. This package lets tests and examples verify that the rule holds
// empirically for the arrangements the algorithms produce.
package voting

import (
	"math/rand/v2"

	"ltc/internal/model"
	"ltc/internal/stats"
)

// Label is a binary task answer: +1 ("YES") or −1 ("NO").
type Label int8

// Binary answer labels.
const (
	Yes Label = 1
	No  Label = -1
)

// Answer is one worker's response to one task.
type Answer struct {
	Worker int
	Task   model.TaskID
	Value  Label
}

// Simulator owns the hidden ground truth of an instance's tasks and samples
// worker answers.
type Simulator struct {
	in    *model.Instance
	rng   *rand.Rand
	truth []Label
}

// NewSimulator draws a uniform random ground truth for every task of the
// instance, seeded deterministically.
func NewSimulator(in *model.Instance, seed uint64) *Simulator {
	rng := stats.NewRand(seed)
	truth := make([]Label, len(in.Tasks))
	for t := range truth {
		if rng.IntN(2) == 0 {
			truth[t] = Yes
		} else {
			truth[t] = No
		}
	}
	return &Simulator{in: in, rng: rng, truth: truth}
}

// Truth returns the hidden ground truth of task t.
func (s *Simulator) Truth(t model.TaskID) Label { return s.truth[t] }

// Collect samples one answer per assignment of the arrangement: correct
// with probability Acc(w,t), flipped otherwise.
func (s *Simulator) Collect(arr *model.Arrangement) []Answer {
	answers := make([]Answer, 0, len(arr.Pairs))
	for _, p := range arr.Pairs {
		w := s.in.Workers[p.Worker-1]
		t := s.in.Tasks[p.Task]
		acc := s.in.Model.Predict(w, t)
		v := s.truth[p.Task]
		if s.rng.Float64() >= acc {
			v = -v
		}
		answers = append(answers, Answer{Worker: p.Worker, Task: p.Task, Value: v})
	}
	return answers
}

// Aggregate computes the weighted majority vote per task. Tasks without
// answers get label 0.
func Aggregate(in *model.Instance, answers []Answer) []Label {
	score := make([]float64, len(in.Tasks))
	seen := make([]bool, len(in.Tasks))
	for _, a := range answers {
		w := in.Workers[a.Worker-1]
		t := in.Tasks[a.Task]
		weight := 2*in.Model.Predict(w, t) - 1
		score[a.Task] += weight * float64(a.Value)
		seen[a.Task] = true
	}
	out := make([]Label, len(in.Tasks))
	for t := range out {
		switch {
		case !seen[t]:
			out[t] = 0
		case score[t] >= 0:
			out[t] = Yes
		default:
			out[t] = No
		}
	}
	return out
}

// ErrorReport summarises an empirical quality evaluation.
type ErrorReport struct {
	Trials        int
	TaskDecisions int     // Trials × |T|
	Wrong         int     // decisions disagreeing with ground truth
	ErrorRate     float64 // Wrong / TaskDecisions
}

// EmpiricalError replays the arrangement `trials` times with fresh sampled
// answers (fresh ground truth each trial) and reports the fraction of task
// decisions that were wrong. For arrangements produced by the LTC
// algorithms this should be (comfortably) below the instance's ε.
func EmpiricalError(in *model.Instance, arr *model.Arrangement, trials int, seed uint64) ErrorReport {
	rep := ErrorReport{Trials: trials}
	for trial := 0; trial < trials; trial++ {
		sim := NewSimulator(in, stats.SplitSeed(seed, uint64(trial)))
		answers := sim.Collect(arr)
		decided := Aggregate(in, answers)
		for t, label := range decided {
			if label == 0 {
				continue // unassigned task: no decision to grade
			}
			rep.TaskDecisions++
			if label != sim.Truth(model.TaskID(t)) {
				rep.Wrong++
			}
		}
	}
	if rep.TaskDecisions > 0 {
		rep.ErrorRate = float64(rep.Wrong) / float64(rep.TaskDecisions)
	}
	return rep
}
