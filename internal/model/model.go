// Package model defines the Latency-oriented Task Completion (LTC) problem
// of Zeng et al. (ICDE 2018): micro tasks, crowd workers, the predicted
// accuracy function of Eq. 1, the Hoeffding quality threshold δ = 2·ln(1/ε),
// and task-worker arrangements with their feasibility constraints.
//
// The package is purely declarative — algorithms live in internal/core.
package model

import (
	"errors"
	"fmt"
	"math"

	"ltc/internal/geo"
)

// TaskID identifies a task by its position in Instance.Tasks.
type TaskID int32

// Task is a micro task t = <l_t, ε> (Definition 1). The tolerable error
// rate ε is shared by all tasks of an instance and lives on the Instance.
type Task struct {
	ID  TaskID
	Loc geo.Point
}

// Worker is a crowd worker w = <o_w, l_w, p_w, K> (Definition 2). Index is
// the 1-based arrival order o_w; Acc is the historical accuracy p_w. The
// capacity K is shared by all workers of an instance and lives on the
// Instance.
type Worker struct {
	Index int
	Loc   geo.Point
	Acc   float64
}

// SpamThreshold is the minimum historical accuracy below which the platform
// treats a worker as spam (§II-A, assumption (i): p_w ≥ 66%).
const SpamThreshold = 0.66

// Delta returns δ = 2·ln(1/ε), the accumulated Acc* a task needs before its
// weighted-majority vote error drops below ε (Hoeffding's inequality,
// Definition 4 discussion).
func Delta(epsilon float64) float64 {
	if epsilon <= 0 || epsilon >= 1 {
		panic(fmt.Sprintf("model: epsilon must be in (0,1), got %v", epsilon))
	}
	return 2 * math.Log(1/epsilon)
}

// AccStar returns Acc*(w,t) = (2·Acc(w,t) − 1)², the per-assignment quality
// credit (error-rate constraint, Definition 6).
func AccStar(acc float64) float64 {
	d := 2*acc - 1
	return d * d
}

// CompletionEps is the floating-point slack used when comparing accumulated
// credit against δ. Accumulations are sums of hundreds of float64 terms; a
// relative slack of 1e-9 is far below one assignment's worth of credit.
const CompletionEps = 1e-9

// Completed reports whether accumulated credit satisfies the error-rate
// constraint for the given δ.
func Completed(accumulated, delta float64) bool {
	return accumulated >= delta-CompletionEps
}

// An AccuracyModel predicts the accuracy Acc(w,t) ∈ [0,1] of a worker
// performing a task (Definition 3).
type AccuracyModel interface {
	// Predict returns Acc(w, t).
	Predict(w Worker, t Task) float64
}

// RadiusBounder is implemented by spatial accuracy models: ones that see a
// task through its location only, and predict no better the farther away it
// is. Eligibility (Acc ≥ minAcc) then implies a maximum worker-task
// distance, which the candidate index uses to prune with a spatial query
// instead of a full scan, and an arrival may stop evaluating tasks farther
// than one that already lost (core.LAF, core.AAM).
type RadiusBounder interface {
	// EligibilityRadius returns a distance r such that any pair farther
	// apart than r has Predict < minAcc, or +Inf when no bound exists.
	EligibilityRadius(minAcc float64) float64
	// PredictAt returns Acc(w, t) for a task at loc: Predict(w, t) and
	// PredictAt(w, t.Loc) are the same bits. For a fixed worker it is
	// non-increasing in ‖w.Loc − loc‖ — the promise that already makes
	// EligibilityRadius sound.
	PredictAt(w Worker, loc geo.Point) float64
}

// SigmoidDistance is the paper's accuracy function (Eq. 1):
//
//	Acc(w,t) = p_w / (1 + exp(−(dmax − ‖l_w, l_t‖)))
//
// DMax is the largest distance at which workers still perform tasks with
// high accuracy; the paper uses 30 grid units (300 m), the median of the
// [100 m, 500 m] POI-familiarity range measured on Foursquare by Yang et
// al. [17].
type SigmoidDistance struct {
	DMax float64
}

// Predict implements AccuracyModel.
func (m SigmoidDistance) Predict(w Worker, t Task) float64 { return m.PredictAt(w, t.Loc) }

// PredictAt implements RadiusBounder.
func (m SigmoidDistance) PredictAt(w Worker, loc geo.Point) float64 {
	d := w.Loc.Dist(loc)
	return w.Acc / (1 + math.Exp(d-m.DMax))
}

// EligibilityRadius implements RadiusBounder. Solving Eq. 1 for distance
// with the best possible historical accuracy p_w = 1 gives
// d ≤ dmax + ln(1/minAcc − 1).
func (m SigmoidDistance) EligibilityRadius(minAcc float64) float64 {
	if minAcc <= 0 {
		return math.Inf(1)
	}
	if minAcc >= 1 {
		return 0
	}
	r := m.DMax + math.Log(1/minAcc-1)
	if r < 0 {
		return 0
	}
	return r
}

// MatrixAccuracy is an accuracy model backed by an explicit table, as in the
// paper's running example (Table I): Vals[t][w] is the predicted accuracy of
// worker with arrival index w+1 on task t. Used by the toy-example tests and
// by callers that bring their own learned accuracy estimates.
type MatrixAccuracy struct {
	Vals [][]float64 // [taskID][workerIndex-1]
}

// Predict implements AccuracyModel. Out-of-range pairs predict 0.
func (m MatrixAccuracy) Predict(w Worker, t Task) float64 {
	if int(t.ID) < 0 || int(t.ID) >= len(m.Vals) {
		return 0
	}
	row := m.Vals[t.ID]
	if w.Index < 1 || w.Index > len(row) {
		return 0
	}
	return row[w.Index-1]
}

// ConstantAccuracy predicts the same accuracy for every pair. It realises
// the McNaughton-rule setting of Theorem 2 (every worker equally accurate on
// every task) and is used by the bound tests.
type ConstantAccuracy struct {
	P float64
}

// Predict implements AccuracyModel.
func (m ConstantAccuracy) Predict(Worker, Task) float64 { return m.P }

// HistoricalOnly predicts Acc(w,t) = p_w, ignoring geometry. Useful as an
// ablation of the spatial factor in Eq. 1.
type HistoricalOnly struct{}

// Predict implements AccuracyModel.
func (HistoricalOnly) Predict(w Worker, _ Task) float64 { return w.Acc }

// Instance is a complete LTC problem: the task set, the worker arrival
// sequence, the shared tolerable error rate ε and capacity K, the accuracy
// model, and the eligibility threshold MinAcc (a worker may perform a task
// only when Acc(w,t) ≥ MinAcc; see README "Design notes" for why this
// threshold is explicit).
type Instance struct {
	Tasks   []Task
	Workers []Worker
	Epsilon float64
	K       int
	Model   AccuracyModel
	MinAcc  float64
}

// Delta returns the instance's quality threshold δ.
func (in *Instance) Delta() float64 { return Delta(in.Epsilon) }

// Validation errors returned by Instance.Validate.
var (
	ErrNoTasks      = errors.New("model: instance has no tasks")
	ErrNoWorkers    = errors.New("model: instance has no workers")
	ErrBadEpsilon   = errors.New("model: epsilon outside (0,1)")
	ErrBadCapacity  = errors.New("model: capacity K must be positive")
	ErrNoModel      = errors.New("model: nil accuracy model")
	ErrBadMinAcc    = errors.New("model: MinAcc outside [0,1)")
	ErrWorkerOrder  = errors.New("model: workers not in arrival order 1..n")
	ErrTaskIDs      = errors.New("model: task IDs not consecutive from 0")
	ErrBadLocation  = errors.New("model: task location is not finite")
	ErrSpamWorker   = errors.New("model: worker below spam threshold")
	ErrAccuracyOOB  = errors.New("model: worker historical accuracy outside [0,1]")
	ErrInfeasible   = errors.New("model: some tasks cannot reach the error-rate threshold")
	ErrCapacityUsed = errors.New("model: worker over capacity")
	ErrIneligible   = errors.New("model: assignment below eligibility threshold")
	ErrDuplicate    = errors.New("model: duplicate assignment of a task to a worker")
	ErrIncomplete   = errors.New("model: not all tasks completed")
	ErrBadWorkerRef = errors.New("model: assignment references unknown worker")
	ErrBadTaskRef   = errors.New("model: assignment references unknown task")
)

// Validate checks the structural invariants of the instance: everything
// ValidateStreaming checks, plus a non-empty worker set sorted by arrival
// index 1..n with accuracies in [SpamThreshold, 1].
func (in *Instance) Validate() error {
	if err := in.ValidateStreaming(); err != nil {
		return err
	}
	if len(in.Workers) == 0 {
		return ErrNoWorkers
	}
	for i, w := range in.Workers {
		if w.Index != i+1 {
			return fmt.Errorf("%w: position %d has index %d", ErrWorkerOrder, i, w.Index)
		}
		if w.Acc < 0 || w.Acc > 1 {
			return fmt.Errorf("%w: worker %d has p=%v", ErrAccuracyOOB, w.Index, w.Acc)
		}
		if w.Acc < SpamThreshold {
			return fmt.Errorf("%w: worker %d has p=%v < %v", ErrSpamWorker, w.Index, w.Acc, SpamThreshold)
		}
	}
	return nil
}

// ValidateStreaming checks the instance fields the streaming APIs (Session,
// the sharded dispatch layer) need: a non-empty task set with consecutive
// IDs from 0 and finite locations, ε ∈ (0,1), K ≥ 1, a model and MinAcc ∈
// [0,1). Workers may be empty — they are supplied at check-in time.
func (in *Instance) ValidateStreaming() error {
	if len(in.Tasks) == 0 {
		return ErrNoTasks
	}
	if in.Epsilon <= 0 || in.Epsilon >= 1 {
		return ErrBadEpsilon
	}
	if in.K <= 0 {
		return ErrBadCapacity
	}
	if in.Model == nil {
		return ErrNoModel
	}
	if in.MinAcc < 0 || in.MinAcc >= 1 {
		return ErrBadMinAcc
	}
	for i, t := range in.Tasks {
		if int(t.ID) != i {
			return fmt.Errorf("%w: position %d has ID %d", ErrTaskIDs, i, t.ID)
		}
	}
	return in.validateTaskLocations()
}

// validateTaskLocations rejects NaN and ±Inf initial task coordinates: one
// of them turns the task bounding rect — and with it every tiling, routing
// table and topology file built from the instance — into NaNs. Check-ins and
// tasks posted online are clamped per call instead (geo.TileGrid.Index).
func (in *Instance) validateTaskLocations() error {
	for _, t := range in.Tasks {
		for _, v := range [2]float64{t.Loc.X, t.Loc.Y} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: task %d at %v", ErrBadLocation, t.ID, t.Loc)
			}
		}
	}
	return nil
}

// Eligible reports whether worker w may perform task t under the instance's
// eligibility threshold, and returns the predicted accuracy.
func (in *Instance) Eligible(w Worker, t Task) (acc float64, ok bool) {
	acc = in.Model.Predict(w, t)
	return acc, acc >= in.MinAcc
}
