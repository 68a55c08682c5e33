// Package ltc is a from-scratch Go implementation of "Latency-oriented
// Task Completion via Spatial Crowdsourcing" (Zeng, Tong, Chen, Zhou —
// ICDE 2018).
//
// A spatial-crowdsourcing platform holds a set of location-specific binary
// micro tasks; crowd workers arrive one by one (check-ins) and each can
// answer at most K questions about nearby points of interest. The LTC
// problem asks for a task-worker arrangement that completes every task —
// accumulated quality credit Σ(2·Acc−1)² reaching δ = 2·ln(1/ε), which by
// Hoeffding's inequality caps the weighted-majority vote error at ε — while
// minimising the arrival index of the last worker used (the latency).
//
// The package exposes:
//
//   - the problem model (Instance, Task, Worker, accuracy models);
//   - the paper's algorithms — offline MCF-LTC (minimum-cost-flow batches)
//     and Base-off; online LAF, AAM and Random — plus an exact solver for
//     tiny instances;
//   - Solve for one-shot runs, Session for single-threaded streaming use,
//     and Platform for concurrent check-in streams over spatial shards —
//     per call (CheckIn), batched (CheckInBatch) or asynchronous behind
//     bounded per-shard queues (CheckInAsync/Flush); every
//     check-in returns a structured Receipt, and Platform.Subscribe streams
//     lifecycle events (task posted/retired/completed, platform done); see
//     CONCURRENCY.md;
//   - composable functional options (WithShards, WithSeed, WithIndex, …)
//     accepted uniformly by Solve, NewSession, NewPlatform and ReplayChurn;
//   - workload generators reproducing the paper's synthetic (Table IV) and
//     Foursquare-style (Table V) datasets, plus named skewed scenarios
//     (hotspot, flashcrowd, rushhour, sparse-frontier — NewScenario) and a
//     load-aware shard layout surviving them (WithBalancedShards, with
//     per-shard load accounts in ShardStats and Platform.Imbalance);
//   - a voting simulator to verify completed tasks empirically meet ε;
//   - cmd/ltcd, an HTTP/JSON gateway serving a Platform over the wire
//     (check-ins, task lifecycle, stats, and an SSE event stream).
//
// Quick start:
//
//	cfg := ltc.DefaultWorkload().Scale(0.01)
//	in, _ := cfg.Generate()
//	res, _ := ltc.Solve(in, ltc.AAM)
//	fmt.Println("latency:", res.Latency)
package ltc

import (
	"errors"
	"fmt"

	"ltc/internal/core"
	"ltc/internal/model"
)

// Problem-model types, re-exported from the implementation packages so the
// whole public surface lives under this package.
type (
	// Task is a micro task t = <l_t, ε> (location + shared error rate).
	Task = model.Task
	// TaskID indexes a task within an Instance.
	TaskID = model.TaskID
	// Worker is a crowd worker (arrival index, location, historical
	// accuracy); capacity K is shared and lives on the Instance.
	Worker = model.Worker
	// Instance is a complete LTC problem.
	Instance = model.Instance
	// Assignment is one (worker, task) pair of an arrangement.
	Assignment = model.Assignment
	// Arrangement is a set of assignments with accumulated quality credit.
	Arrangement = model.Arrangement
	// AccuracyModel predicts Acc(w, t) ∈ [0, 1].
	AccuracyModel = model.AccuracyModel
	// SigmoidDistance is the paper's Eq. 1 accuracy model.
	SigmoidDistance = model.SigmoidDistance
	// MatrixAccuracy is a table-backed accuracy model (Table I style).
	MatrixAccuracy = model.MatrixAccuracy
	// ConstantAccuracy predicts a fixed accuracy for every pair.
	ConstantAccuracy = model.ConstantAccuracy
	// Candidate is a task a worker is eligible for, with its credit.
	Candidate = model.Candidate
	// CandidateIndex answers eligibility queries for an instance.
	CandidateIndex = model.CandidateIndex
	// Result reports one algorithm run (latency, arrangement, cost).
	Result = core.Result
)

// NewCandidateIndex builds the spatial eligibility index for an instance,
// with every task live. Solve and Session build one on demand; pre-building
// lets callers share it across runs through WithIndex, which treats it as a
// template: offline algorithms only query it, and every online run works on
// its own copy, because an online engine removes each task from its index
// the moment the task completes. A query writes nothing to the index, so
// concurrent queries on a shared index are safe; Insert and Remove mutate it
// in place and need the caller's exclusion against every other call on it.
var NewCandidateIndex = model.NewCandidateIndex

// Delta returns δ = 2·ln(1/ε), the per-task quality credit threshold.
func Delta(epsilon float64) float64 { return model.Delta(epsilon) }

// AccStar returns (2·acc − 1)², the quality credit of one assignment.
func AccStar(acc float64) float64 { return model.AccStar(acc) }

// SpamThreshold is the minimum historical accuracy the platform accepts.
const SpamThreshold = model.SpamThreshold

// Algorithm selects one of the implemented solvers.
type Algorithm string

// The implemented algorithms.
const (
	// MCFLTC is the paper's offline Algorithm 1 (min-cost-flow batches,
	// 7.5-approximation).
	MCFLTC Algorithm = "MCF-LTC"
	// BaseOff is the offline greedy baseline (scarcity-first).
	BaseOff Algorithm = "Base-off"
	// LAF is online Algorithm 2, Largest Acc* First (7.967-competitive).
	LAF Algorithm = "LAF"
	// AAM is online Algorithm 3, Average And Maximum (7.738-competitive).
	AAM Algorithm = "AAM"
	// RandomAssign is the online random baseline.
	RandomAssign Algorithm = "Random"
	// Exact is a branch-and-bound optimum for tiny instances.
	Exact Algorithm = "Exact"
)

// Algorithms returns the five evaluated algorithms in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{BaseOff, MCFLTC, RandomAssign, LAF, AAM}
}

// IsOnline reports whether the algorithm commits assignments at worker
// arrival time (no knowledge of future workers).
func (a Algorithm) IsOnline() bool {
	switch a {
	case LAF, AAM, RandomAssign:
		return true
	}
	return false
}

// ErrUnknownAlgorithm is returned for algorithm names outside the set above.
var ErrUnknownAlgorithm = errors.New("ltc: unknown algorithm")

// ErrIncomplete is returned when the worker stream ends before every task
// reaches its quality threshold. The partial Result is still returned.
var ErrIncomplete = core.ErrIncomplete

func (c config) indexFor(in *Instance) *CandidateIndex {
	if c.index != nil {
		return c.index
	}
	return model.NewCandidateIndex(in)
}

// Solve runs the chosen algorithm on the instance and returns its Result.
// Online algorithms are fed the instance's workers in arrival order. A
// Result with ErrIncomplete is returned when the workers run out first.
func Solve(in *Instance, algo Algorithm, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	ci := c.indexFor(in)
	switch algo {
	case MCFLTC:
		return core.RunOffline(in, ci, &core.MCFLTC{})
	case BaseOff:
		return core.RunOffline(in, ci, core.BaseOff{})
	case Exact:
		return core.RunOffline(in, ci, &core.Exact{})
	case LAF, AAM, RandomAssign:
		factory, err := onlineFactory(algo, c.seed)
		if err != nil {
			return nil, err
		}
		return core.RunOnline(in, ci, factory)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, algo)
	}
}

func onlineFactory(algo Algorithm, seed uint64) (core.OnlineFactory, error) {
	switch algo {
	case LAF:
		return func(in *Instance, ci *CandidateIndex) core.Online { return core.NewLAF(in, ci) }, nil
	case AAM:
		return func(in *Instance, ci *CandidateIndex) core.Online { return core.NewAAM(in, ci) }, nil
	case RandomAssign:
		return func(in *Instance, ci *CandidateIndex) core.Online { return core.NewRandom(in, ci, seed) }, nil
	default:
		return nil, fmt.Errorf("%w: %q is not an online algorithm", ErrUnknownAlgorithm, algo)
	}
}
