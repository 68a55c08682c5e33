package ltc

import (
	"ltc/internal/checkin"
	"ltc/internal/model"
	"ltc/internal/voting"
	"ltc/internal/workload"
)

// Workload generation (paper §V-A), re-exported.

type (
	// WorkloadConfig describes a synthetic Table IV workload.
	WorkloadConfig = workload.Config
	// AccuracyDist is a historical-accuracy distribution (Normal/Uniform).
	AccuracyDist = workload.AccuracyDist
	// CityConfig describes a simulated check-in trace (Table V substitute).
	CityConfig = checkin.CityConfig
	// CityTrace is a generated check-in trace with its LTC instance.
	CityTrace = checkin.Trace
)

// Accuracy distribution kinds for WorkloadConfig.
const (
	DistNormal  = workload.DistNormal
	DistUniform = workload.DistUniform
)

// Skewed workload scenarios (hotspots, flash crowds, rush-hour drift,
// sparse frontiers), re-exported.

// Scenario is a named, seed-deterministic skewed-workload generator over a
// Table IV base config: the same counts, capacity and accuracy population
// with the kind's spatial (and temporal — worker order matters) placement.
// Compose with the dynamic task lifecycle via Scenario.GenerateChurn.
type Scenario = workload.Scenario

// The named workload scenarios accepted by NewScenario.
const (
	// ScenarioUniform is the Table IV baseline (identical to
	// WorkloadConfig.Generate).
	ScenarioUniform = workload.ScenarioUniform
	// ScenarioHotspot concentrates tasks and workers on a few tiles by
	// Zipf rank.
	ScenarioHotspot = workload.ScenarioHotspot
	// ScenarioFlashCrowd sends a time-windowed burst of workers into one
	// small disc.
	ScenarioFlashCrowd = workload.ScenarioFlashCrowd
	// ScenarioRushHour drifts the worker mass across the grid over the
	// stream.
	ScenarioRushHour = workload.ScenarioRushHour
	// ScenarioSparseFrontier places tasks in a strip nearly devoid of
	// workers.
	ScenarioSparseFrontier = workload.ScenarioSparseFrontier
)

// NewScenario returns a scenario of the given kind over base. Each kind's
// shape is fixed; the workload package documents it.
func NewScenario(kind string, base WorkloadConfig) (Scenario, error) {
	return workload.NewScenario(kind, base)
}

// ScenarioKinds lists the named scenario kinds in presentation order.
func ScenarioKinds() []string { return workload.ScenarioKinds() }

// Dynamic task lifecycle workloads (online posts + TTL expiry), re-exported.

type (
	// ChurnConfig describes a workload whose task set mutates online:
	// Poisson task posts on the arrival clock plus optional TTL expiry.
	ChurnConfig = workload.ChurnConfig
	// ChurnWorkload is a generated churn scenario: initial instance plus
	// ordered post/retire events to replay against a Platform.
	ChurnWorkload = workload.ChurnWorkload
	// TaskEvent is one lifecycle event (post or retire) on the arrival clock.
	TaskEvent = workload.TaskEvent
)

// Lifecycle event kinds for TaskEvent.
const (
	EventPost   = workload.EventPost
	EventRetire = workload.EventRetire
)

// DefaultChurn returns a churn scenario over the given base workload with
// 60% of the tasks present initially and 40% posted online (no expiry).
func DefaultChurn(base WorkloadConfig) ChurnConfig { return workload.DefaultChurn(base) }

// DefaultWorkload returns Table IV's default synthetic setting
// (|T| = 3000, |W| = 40000, K = 6, Normal(0.86, 0.05), ε = 0.1). Use
// .Scale(f) for laptop-sized variants.
func DefaultWorkload() WorkloadConfig { return workload.Default() }

// NewYork returns the Table V New York check-in preset
// (3,717 tasks / 227,428 workers).
func NewYork() CityConfig { return checkin.NewYork() }

// Tokyo returns the Table V Tokyo check-in preset
// (9,317 tasks / 573,703 workers).
func Tokyo() CityConfig { return checkin.Tokyo() }

// GenerateCity builds a full check-in trace (users, chronological
// check-ins, POIs, hull) plus its LTC instance.
func GenerateCity(c CityConfig) (*CityTrace, error) { return checkin.Generate(c) }

// Quality verification (paper §II, Definition 4), re-exported.

type (
	// QualityReport summarises an empirical error evaluation.
	QualityReport = voting.ErrorReport
	// Answer is one simulated worker response.
	Answer = voting.Answer
	// Label is a binary task answer (+1 / −1).
	Label = voting.Label
)

// VerifyQuality replays an arrangement `trials` times with simulated
// answers and weighted-majority voting, reporting the empirical error rate.
// For arrangements produced by the LTC algorithms this should sit below the
// instance's ε (usually far below — Hoeffding is a loose bound).
func VerifyQuality(in *Instance, arr *Arrangement, trials int, seed uint64) QualityReport {
	return voting.EmpiricalError(in, arr, trials, seed)
}

// InferTruthEM simulates one round of answers for the arrangement and
// aggregates them with model-free EM truth inference (Dawid-Skene style,
// §VI-A of the paper) instead of the model-weighted vote. It returns the
// inferred labels, the hidden ground truth, and which tasks had answers —
// for comparing aggregation schemes, as examples/tradeoff does.
func InferTruthEM(in *Instance, arr *Arrangement, seed uint64) (labels, truth []Label, answered []bool, err error) {
	sim := voting.NewSimulator(in, seed)
	answers := sim.Collect(arr)
	em, err := voting.EMInference(len(in.Tasks), answers)
	if err != nil {
		return nil, nil, nil, err
	}
	truth = make([]Label, len(in.Tasks))
	answered = make([]bool, len(in.Tasks))
	for t := range truth {
		truth[t] = sim.Truth(TaskID(t))
		answered[t] = em.Labels[t] != 0
	}
	return em.Labels, truth, answered, nil
}

// CheckFeasible reports whether every task of the instance can reach its
// quality threshold if every eligible worker performs it (a necessary
// condition; capacity can still make a borderline instance incompletable).
func CheckFeasible(in *Instance) error {
	return model.NewCandidateIndex(in).CheckFeasible()
}
