package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ltc/internal/model"
	"ltc/internal/stats"
)

// ChurnConfig describes a dynamic-task-lifecycle workload: a Table IV
// instance whose task set mutates while the worker stream runs. A fraction
// of the tasks is present before the first arrival; the rest are posted
// online at the arrival times of a Poisson process (the task-arrival
// counterpart of the paper's worker check-in stream, cf. the continuous
// posting regime of hyperlocal frameworks), spread over the first 40% of
// the worker stream so the tail can finish them. Optionally every task
// expires TTL arrivals after its post — the driver retires it if it is
// still incomplete by then.
type ChurnConfig struct {
	// Base is the underlying Table IV workload (tasks, workers, K, ε, ...).
	Base Config
	// InitialFraction of Base.NumTasks exists before the first check-in.
	// The remainder is posted online. Must lie in (0, 1]; the acceptance
	// regime of the churn experiment uses ≤ 0.8 (≥ 20% late posts).
	InitialFraction float64
	// TTL is the number of arrivals after its post at which a task expires
	// (is retired if still incomplete). 0 disables expiry.
	TTL int
	// Seed drives the post-time draws (independent of Base.Seed streams).
	Seed uint64
}

// EventKind discriminates lifecycle events.
type EventKind int

// Lifecycle event kinds.
const (
	EventPost EventKind = iota
	EventRetire
)

// TaskEvent is one lifecycle event on the arrival clock: it fires after
// Arrival workers have checked in (0 = before the first worker).
type TaskEvent struct {
	Arrival int
	Kind    EventKind
	// Task is the task to post (EventPost). Its ID is the dense global ID
	// the platform will assign, pre-computed so drivers can cross-check.
	Task model.Task
	// ID is the task to retire (EventRetire).
	ID model.TaskID
}

// ChurnWorkload is a generated dynamic-lifecycle scenario: the initial
// instance (first tasks only, full worker stream) plus the ordered post and
// expiry events to replay against a Platform.
type ChurnWorkload struct {
	// Instance holds the initial task set and the full worker stream.
	Instance *model.Instance
	// Events is sorted by Arrival (posts before retires at equal times).
	Events []TaskEvent
	// TotalTasks = initial + posted.
	TotalTasks int
	// InitialTasks is len(Instance.Tasks).
	InitialTasks int
}

// PostedLate counts tasks posted after the first worker arrival.
func (cw *ChurnWorkload) PostedLate() int {
	n := 0
	for _, e := range cw.Events {
		if e.Kind == EventPost && e.Arrival >= 1 {
			n++
		}
	}
	return n
}

// postSpan is the fraction of the worker stream over which the late posts
// arrive.
const postSpan = 0.4

// ErrBadChurn is returned for out-of-range churn parameters.
var ErrBadChurn = errors.New("workload: churn parameters out of range")

// DefaultChurn returns a churn scenario over the given base workload with
// 60% of the tasks initial (40% posted online) and no expiry.
func DefaultChurn(base Config) ChurnConfig {
	return ChurnConfig{Base: base, InitialFraction: 0.6, Seed: base.Seed}
}

// Generate builds the churn workload. Task locations and workers come from
// the base generator, so a ChurnConfig with InitialFraction = 1 reproduces
// the static instance exactly; lowering the fraction converts the trailing
// tasks into online posts (renumbered densely in post order, matching the
// platform's ID assignment). Deterministic in the config.
func (c ChurnConfig) Generate() (*ChurnWorkload, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	base, err := c.Base.Generate()
	if err != nil {
		return nil, err
	}
	return c.split(base)
}

// GenerateOn builds the churn workload over a pre-generated instance — the
// composition point for the Scenario layer: a skewed instance (hotspot,
// flash crowd, ...) splits into initial tasks plus online posts exactly as
// Generate splits the uniform base. c.Base is not consulted; the instance
// provides the tasks and the worker stream. Deterministic in (c, base).
func (c ChurnConfig) GenerateOn(base *model.Instance) (*ChurnWorkload, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c.split(base)
}

func (c ChurnConfig) validate() error {
	if c.InitialFraction <= 0 || c.InitialFraction > 1 {
		return fmt.Errorf("%w: InitialFraction %v", ErrBadChurn, c.InitialFraction)
	}
	if c.TTL < 0 {
		return fmt.Errorf("%w: TTL %d", ErrBadChurn, c.TTL)
	}
	return nil
}

// split converts the trailing tasks of a generated instance into online
// posts on the arrival clock, plus TTL expiries when configured.
func (c ChurnConfig) split(base *model.Instance) (*ChurnWorkload, error) {
	nInitial := int(math.Ceil(c.InitialFraction * float64(len(base.Tasks))))
	if nInitial < 1 {
		nInitial = 1
	}
	posted := base.Tasks[nInitial:]
	in := &model.Instance{
		Tasks:   base.Tasks[:nInitial:nInitial],
		Workers: base.Workers,
		Epsilon: base.Epsilon,
		K:       base.K,
		Model:   base.Model,
		MinAcc:  base.MinAcc,
	}

	// The Poisson intensity λ of task posts per worker arrival.
	rate := float64(len(posted)) / max(1, float64(len(base.Workers))*postSpan)

	cw := &ChurnWorkload{
		Instance:     in,
		TotalTasks:   len(base.Tasks),
		InitialTasks: nInitial,
	}
	rng := stats.NewRand(stats.SplitSeed(c.Seed, 2))
	clock := 0.0
	for i, t := range posted {
		// Poisson process: exponential inter-arrival gaps at intensity λ.
		clock += rng.ExpFloat64() / rate
		arrival := int(clock)
		if arrival < 1 {
			arrival = 1 // online posts land after the first check-in
		}
		if arrival > len(base.Workers) {
			arrival = len(base.Workers)
		}
		gid := model.TaskID(nInitial + i) // dense platform ID, in post order
		cw.Events = append(cw.Events, TaskEvent{
			Arrival: arrival,
			Kind:    EventPost,
			Task:    model.Task{ID: gid, Loc: t.Loc},
		})
	}
	if c.TTL > 0 {
		for t := 0; t < nInitial; t++ {
			cw.Events = append(cw.Events, TaskEvent{
				Arrival: c.TTL, Kind: EventRetire, ID: model.TaskID(t),
			})
		}
		for _, e := range cw.Events {
			if e.Kind == EventPost {
				cw.Events = append(cw.Events, TaskEvent{
					Arrival: e.Arrival + c.TTL, Kind: EventRetire, ID: e.Task.ID,
				})
			}
		}
	}
	// Sort by arrival; posts fire before retires at the same tick, and ties
	// keep ID order so replays are deterministic.
	sort.SliceStable(cw.Events, func(i, j int) bool {
		a, b := cw.Events[i], cw.Events[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Kind != b.Kind {
			return a.Kind == EventPost
		}
		if a.Kind == EventPost {
			return a.Task.ID < b.Task.ID
		}
		return a.ID < b.ID
	})
	return cw, nil
}
