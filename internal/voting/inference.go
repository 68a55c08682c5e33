package voting

import (
	"errors"
	"math"
)

// This file implements the truth-inference side of quality control that the
// paper surveys in §VI-A: besides the Hoeffding-weighted majority vote of
// Definition 4 (Aggregate), platforms commonly use an unweighted majority
// vote or jointly estimate worker reliabilities and labels with EM
// (Dawid-Skene style). Both are provided so examples and tests can compare
// the paper's choice against the standard alternatives.

// MajorityVote aggregates answers per task by simple (unweighted) majority.
// Tasks without answers get label 0; exact ties resolve to Yes.
func MajorityVote(numTasks int, answers []Answer) []Label {
	score := make([]int, numTasks)
	seen := make([]bool, numTasks)
	for _, a := range answers {
		score[a.Task] += int(a.Value)
		seen[a.Task] = true
	}
	out := make([]Label, numTasks)
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

// EMResult is the output of EMInference.
type EMResult struct {
	// Labels is the inferred answer per task (0 for unanswered tasks).
	Labels []Label
	// WorkerAccuracy maps worker arrival index → estimated accuracy.
	WorkerAccuracy map[int]float64
	// Iterations actually performed before convergence.
	Iterations int
}

const (
	// emMaxIterations bounds the EM loop.
	emMaxIterations = 50
	// emSmoothing is the Laplace pseudo-count applied to worker accuracy
	// estimates, keeping them off the 0/1 boundary.
	emSmoothing = 1.0
)

// ErrNoData is returned by EMInference when there are no answers at all.
var ErrNoData = errors.New("voting: no answers to infer from")

// EMInference jointly estimates task labels and per-worker accuracies with
// a binary Dawid-Skene-style EM: labels start from the unweighted majority
// vote; each round re-estimates every worker's accuracy as their
// (smoothed) agreement rate with the current labels, then re-aggregates
// labels with log-odds weights log(acc / (1 − acc)). The loop stops when
// the labels reach a fixed point.
//
// Unlike Aggregate, EMInference uses no predicted accuracies — it recovers
// reliabilities from the answers alone, which is what a platform without
// historical data would run.
func EMInference(numTasks int, answers []Answer) (*EMResult, error) {
	if len(answers) == 0 {
		return nil, ErrNoData
	}

	byWorker := map[int][]Answer{}
	for _, a := range answers {
		byWorker[a.Worker] = append(byWorker[a.Worker], a)
	}

	labels := MajorityVote(numTasks, answers)
	acc := make(map[int]float64, len(byWorker))
	res := &EMResult{}

	for iter := 0; iter < emMaxIterations; iter++ {
		res.Iterations = iter + 1

		// M-step: worker accuracy = smoothed agreement with labels.
		for w, as := range byWorker {
			agree, total := emSmoothing, 2*emSmoothing
			for _, a := range as {
				if labels[a.Task] == 0 {
					continue
				}
				total++
				if a.Value == labels[a.Task] {
					agree++
				}
			}
			acc[w] = agree / total
		}

		// E-step: labels = log-odds weighted vote.
		next := make([]Label, numTasks)
		score := make([]float64, numTasks)
		seen := make([]bool, numTasks)
		for _, a := range answers {
			p := acc[a.Worker]
			// Clamp away from the boundary for a finite log-odds.
			if p > 0.999 {
				p = 0.999
			} else if p < 0.001 {
				p = 0.001
			}
			score[a.Task] += math.Log(p/(1-p)) * float64(a.Value)
			seen[a.Task] = true
		}
		for t := range next {
			switch {
			case !seen[t]:
				next[t] = 0
			case score[t] >= 0:
				next[t] = Yes
			default:
				next[t] = No
			}
		}

		converged := true
		for t := range next {
			if next[t] != labels[t] {
				converged = false
				break
			}
		}
		labels = next
		if converged {
			break
		}
	}
	res.Labels = labels
	res.WorkerAccuracy = acc
	return res, nil
}
