// Package workload generates the synthetic datasets of the paper's
// evaluation (§V-A, Table IV): task and worker locations drawn uniformly
// from a 1000×1000 grid of 10 m cells, historical accuracies drawn from a
// Normal(µ, 0.05) or mean-centred Uniform distribution truncated to
// [0.66, 1], dmax = 30 grid units (300 m), and the sweep presets for every
// experiment dimension (|T|, K, accuracy distribution, ε, scalability).
package workload

import (
	"errors"
	"fmt"
	"math"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// DistKind selects the historical-accuracy distribution of Table IV.
type DistKind int

// Accuracy distribution kinds.
const (
	DistNormal DistKind = iota
	DistUniform
)

// String implements fmt.Stringer.
func (d DistKind) String() string {
	if d == DistUniform {
		return "Uniform"
	}
	return "Normal"
}

// AccuracyDist describes a historical-accuracy distribution. For DistNormal
// Spread is the standard deviation σ; for DistUniform it is the half-width
// of the interval around Mean. Samples are truncated to
// [model.SpamThreshold, 1].
type AccuracyDist struct {
	Kind   DistKind
	Mean   float64
	Spread float64
}

// Config fully describes a synthetic LTC workload. The zero value is not
// usable; start from Default() and override fields.
type Config struct {
	NumTasks   int
	NumWorkers int
	K          int
	Epsilon    float64
	// GridWidth/GridHeight are the extents in grid units (10 m per unit).
	GridWidth  float64
	GridHeight float64
	// DMax is Eq. 1's accuracy horizon in grid units.
	DMax float64
	// MinAcc is the eligibility threshold (README "Design notes").
	MinAcc float64
	// Accuracy is the historical-accuracy distribution.
	Accuracy AccuracyDist
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultMinAcc is the pairwise eligibility threshold of the generated
// instances. At 0.5 the eligibility radius of Eq. 1 is exactly dmax —
// "the largest distance that workers are able to perform the tasks" — for
// every historical accuracy, and the per-assignment credit Acc* spans
// (0, (2·p_w−1)²]. The paper's 0.66 threshold applies to the *historical*
// accuracy p_w (spam filtering), not to pairwise Acc(w,t); see README
// "Design notes".
const DefaultMinAcc = 0.5

// Default returns Table IV's default setting (bold values): |T| = 3000,
// |W| = 40000, K = 6, Normal(0.86, 0.05) accuracies, ε = 0.1.
func Default() Config {
	return Config{
		NumTasks:   3000,
		NumWorkers: 40000,
		K:          6,
		Epsilon:    0.1,
		GridWidth:  1000,
		GridHeight: 1000,
		DMax:       30,
		MinAcc:     DefaultMinAcc,
		Accuracy:   AccuracyDist{Kind: DistNormal, Mean: 0.86, Spread: 0.05},
		Seed:       1,
	}
}

// Scalability returns the scalability setting of Table IV: |W| = 400k and
// the given task count (10k..100k in the paper).
func Scalability(numTasks int) Config {
	c := Default()
	c.NumTasks = numTasks
	c.NumWorkers = 400000
	return c
}

// Scale shrinks (or grows) the workload by the given factor while
// preserving spatial density: task and worker counts scale by factor, grid
// extents by √factor. Used to run paper-shaped experiments at laptop scale.
func (c Config) Scale(factor float64) Config {
	if factor <= 0 || factor == 1 {
		return c
	}
	c.NumTasks = scaleCount(c.NumTasks, factor)
	c.NumWorkers = scaleCount(c.NumWorkers, factor)
	side := math.Sqrt(factor)
	c.GridWidth *= side
	c.GridHeight *= side
	return c
}

func scaleCount(n int, factor float64) int {
	s := int(math.Round(float64(n) * factor))
	if s < 1 {
		return 1
	}
	return s
}

// Validation errors.
var (
	ErrBadCounts = errors.New("workload: task and worker counts must be positive")
	ErrBadGrid   = errors.New("workload: grid extents and DMax must be positive")
	ErrBadDist   = errors.New("workload: accuracy mean must lie in [SpamThreshold, 1]")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumTasks <= 0 || c.NumWorkers <= 0 {
		return ErrBadCounts
	}
	if c.GridWidth <= 0 || c.GridHeight <= 0 {
		return ErrBadGrid
	}
	if c.DMax <= 0 {
		// dmax is a distance in grid units; at 0 or below no worker is
		// eligible for any task.
		return fmt.Errorf("%w: DMax=%v", ErrBadGrid, c.DMax)
	}
	if c.MinAcc < 0 || c.MinAcc >= 1 {
		return fmt.Errorf("%w: MinAcc=%v", model.ErrBadMinAcc, c.MinAcc)
	}
	if c.Accuracy.Mean < model.SpamThreshold || c.Accuracy.Mean > 1 {
		return fmt.Errorf("%w: mean=%v", ErrBadDist, c.Accuracy.Mean)
	}
	if c.K <= 0 {
		return model.ErrBadCapacity
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return model.ErrBadEpsilon
	}
	return nil
}

// Generate builds the synthetic instance. Generation is deterministic in
// c.Seed: locations and accuracies come from independent derived streams,
// so changing one sweep dimension leaves the others' draws untouched.
func (c Config) Generate() (*model.Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	locRng := stats.NewRand(stats.SplitSeed(c.Seed, 0))
	accRng := stats.NewRand(stats.SplitSeed(c.Seed, 1))

	in := &model.Instance{
		Tasks:   make([]model.Task, c.NumTasks),
		Workers: make([]model.Worker, c.NumWorkers),
		Epsilon: c.Epsilon,
		K:       c.K,
		Model:   model.SigmoidDistance{DMax: c.DMax},
		MinAcc:  c.MinAcc,
	}
	for t := range in.Tasks {
		in.Tasks[t] = model.Task{
			ID: model.TaskID(t),
			Loc: geo.Point{
				X: locRng.Float64() * c.GridWidth,
				Y: locRng.Float64() * c.GridHeight,
			},
		}
	}
	for w := range in.Workers {
		var acc float64
		switch c.Accuracy.Kind {
		case DistUniform:
			acc = stats.UniformMean(accRng, c.Accuracy.Mean, c.Accuracy.Spread, model.SpamThreshold, 1)
		default:
			acc = stats.TruncatedNormal(accRng, c.Accuracy.Mean, c.Accuracy.Spread, model.SpamThreshold, 1)
		}
		in.Workers[w] = model.Worker{
			Index: w + 1,
			Loc: geo.Point{
				X: locRng.Float64() * c.GridWidth,
				Y: locRng.Float64() * c.GridHeight,
			},
			Acc: acc,
		}
	}
	return in, nil
}

// Table IV sweep presets. Default values are the bold entries.

// TaskSweep returns Table IV's |T| values.
func TaskSweep() []int { return []int{1000, 2000, 3000, 4000, 5000} }

// CapacitySweep returns Table IV's K values.
func CapacitySweep() []int { return []int{4, 5, 6, 7, 8} }

// AccuracyMeanSweep returns Table IV's historical accuracy µ / mean values.
func AccuracyMeanSweep() []float64 { return []float64{0.82, 0.84, 0.86, 0.88, 0.90} }

// EpsilonSweep returns Table IV's tolerable error rates.
func EpsilonSweep() []float64 { return []float64{0.06, 0.10, 0.14, 0.18, 0.22} }

// ScalabilityTaskSweep returns Table IV's scalability |T| values.
func ScalabilityTaskSweep() []int { return []int{10000, 20000, 30000, 40000, 50000, 100000} }

// UniformSpread is the half-width used for the Uniform accuracy setting;
// Table IV leaves it unspecified, ±2σ of the Normal setting keeps the two
// distributions' spreads comparable.
const UniformSpread = 0.10
