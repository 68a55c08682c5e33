// Package core implements the algorithms of "Latency-oriented Task
// Completion via Spatial Crowdsourcing" (Zeng et al., ICDE 2018):
//
//   - Offline (all worker information known in advance, §III):
//     MCF-LTC (Algorithm 1, minimum-cost-flow batches, 7.5-approximation)
//     and the Base-off greedy baseline from the evaluation.
//   - Online (workers arrive one by one, assignments irrevocable, §IV):
//     LAF — Largest Acc* First (Algorithm 2, 7.967-competitive),
//     AAM — Average And Maximum (Algorithm 3, 7.738-competitive),
//     and the Random baseline from the evaluation.
//   - Exact: a branch-and-bound solver for tiny instances, used to measure
//     empirical approximation ratios (the problem is NP-hard, Theorem 1).
//
// All algorithms consume a model.Instance plus a shared
// model.CandidateIndex and produce a model.Arrangement whose Latency() is
// the paper's objective MinMax(M).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ltc/internal/model"
)

// Offline is an algorithm that sees the whole instance at once.
type Offline interface {
	Name() string
	Solve(in *model.Instance, ci *model.CandidateIndex) (*model.Arrangement, error)
}

// Online is an algorithm fed one worker at a time. Implementations must
// decide each worker's assignment immediately and irrevocably (the online
// LTC temporal constraint) using only the workers seen so far. LAF, AAM and
// Random satisfy it by embedding solver, which keeps the ledger and the task
// lifecycle; each adds only its selection rule.
type Online interface {
	Name() string
	// Arrive offers the next worker and returns one Outcome per task
	// assigned to it (possibly none), in a reusable buffer valid until the
	// next arrival. Workers must be offered in arrival order.
	Arrive(w model.Worker) []Outcome
	// Done reports whether every live task has reached the quality
	// threshold.
	Done() bool
	// ledger is the solver's task state, where the engine posts, retires
	// and migrates tasks and reads credit; solver supplies it.
	ledger() *taskState
}

// Outcome is one assignment made by Arrive, with the bookkeeping a service
// caller needs to build a check-in receipt without re-polling: the task,
// the Acc* credit the assignment contributed, and whether it pushed the
// task over its quality threshold δ. The paper's solvers never assign a
// completed task, so Completed marks exactly the assignment that finished
// each task.
//
// Outcomes fill the solver's reusable per-arrival buffer; the
// alignment-optimal field order (Credit first) keeps each entry at 16
// bytes instead of the declaration-ordered 24 — TestOutcomeSizeof keeps
// it that way.
type Outcome struct {
	Credit    float64
	Task      model.TaskID
	Completed bool
}

// OnlineFactory builds a fresh Online solver bound to an instance. The
// candidate index must have been built for the same instance.
type OnlineFactory func(in *model.Instance, ci *model.CandidateIndex) Online

// Result captures one algorithm run with the paper's three metrics:
// effectiveness (Latency, the max arrival index used), and efficiency
// (Elapsed wall time, AllocBytes heap allocation delta).
type Result struct {
	Algorithm   string
	Arrangement *model.Arrangement
	Latency     int
	Completed   bool
	WorkersSeen int
	Elapsed     time.Duration
	AllocBytes  int64
}

// ErrIncomplete is returned by the runners when the worker stream was
// exhausted before every task reached δ. The paper assumes away this case;
// the runners surface it instead so harnesses can decide.
var ErrIncomplete = errors.New("ltc: workers exhausted before all tasks completed")

// RunOffline executes an offline algorithm and measures its cost.
func RunOffline(in *model.Instance, ci *model.CandidateIndex, algo Offline) (*Result, error) {
	start := time.Now()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	arr, err := algo.Solve(in, ci)
	runtime.ReadMemStats(&msAfter)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("ltc: %s: %w", algo.Name(), err)
	}
	res := &Result{
		Algorithm:   algo.Name(),
		Arrangement: arr,
		Latency:     arr.Latency(),
		WorkersSeen: len(in.Workers),
		Elapsed:     elapsed,
		AllocBytes:  int64(msAfter.TotalAlloc - msBefore.TotalAlloc),
	}
	res.Completed = completedAll(in, arr)
	if !res.Completed {
		return res, ErrIncomplete
	}
	return res, nil
}

// RunOnline streams the instance's workers through a fresh Online solver
// until it reports Done or the stream ends, and measures the cost. The
// engine works on its own copy of ci — made before the clock starts, like
// the build of ci itself — so callers can run one index through several
// algorithms.
func RunOnline(in *model.Instance, ci *model.CandidateIndex, factory OnlineFactory) (*Result, error) {
	ci = ci.Clone()
	start := time.Now()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	eng := NewEngine(in, ci, factory)
	seen := 0
	for _, w := range in.Workers {
		if eng.Done() {
			break
		}
		seen++
		eng.Arrive(w)
	}
	runtime.ReadMemStats(&msAfter)
	res := &Result{
		Algorithm:   eng.Name(),
		Arrangement: eng.Arrangement(),
		Latency:     eng.Arrangement().Latency(),
		Completed:   eng.Done(),
		WorkersSeen: seen,
		Elapsed:     time.Since(start),
		AllocBytes:  int64(msAfter.TotalAlloc - msBefore.TotalAlloc),
	}
	if !res.Completed {
		return res, ErrIncomplete
	}
	return res, nil
}

func completedAll(in *model.Instance, arr *model.Arrangement) bool {
	delta := in.Delta()
	for _, s := range arr.Accumulated {
		if !model.Completed(s, delta) {
			return false
		}
	}
	return true
}
