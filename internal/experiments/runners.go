package experiments

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"ltc/internal/checkin"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// figTasks regenerates Fig. 3a/3e/3i: effect of cardinality |T|.
func figTasks() *Experiment {
	e := &Experiment{
		ID:     "fig3-tasks",
		Title:  "Fig. 3 col 1: varying number of tasks |T|",
		XLabel: "|T|",
		Panels: [3]string{"Fig.3a", "Fig.3e", "Fig.3i"},
	}
	e.run = func(o Options) (*Table, error) {
		return sweepSynthetic(e, o, workload.TaskSweep(), func(c *workload.Config, x int) string {
			c.NumTasks = x
			return ""
		})
	}
	return e
}

// figCapacity regenerates Fig. 3b/3f/3j: effect of worker capacity K.
func figCapacity() *Experiment {
	e := &Experiment{
		ID:     "fig3-capacity",
		Title:  "Fig. 3 col 2: varying worker capacity K",
		XLabel: "K",
		Panels: [3]string{"Fig.3b", "Fig.3f", "Fig.3j"},
	}
	e.run = func(o Options) (*Table, error) {
		return sweepSynthetic(e, o, workload.CapacitySweep(), func(c *workload.Config, x int) string {
			c.K = x // capacity is not a size: never scaled
			return strconv.Itoa(x)
		})
	}
	return e
}

// figAccNormal regenerates Fig. 3c/3g/3k: Normal(µ, 0.05) accuracies.
func figAccNormal() *Experiment {
	e := &Experiment{
		ID:     "fig3-accnormal",
		Title:  "Fig. 3 col 3: historical accuracy ~ Normal(µ, 0.05)",
		XLabel: "µ",
		Panels: [3]string{"Fig.3c", "Fig.3g", "Fig.3k"},
	}
	e.run = func(o Options) (*Table, error) {
		return sweepSyntheticFloat(e, o, workload.AccuracyMeanSweep(), func(c *workload.Config, x float64) {
			c.Accuracy = workload.AccuracyDist{Kind: workload.DistNormal, Mean: x, Spread: 0.05}
		})
	}
	return e
}

// figAccUniform regenerates Fig. 3d/3h/3l: Uniform(mean) accuracies.
func figAccUniform() *Experiment {
	e := &Experiment{
		ID:     "fig3-accuniform",
		Title:  "Fig. 3 col 4: historical accuracy ~ Uniform(mean)",
		XLabel: "mean",
		Panels: [3]string{"Fig.3d", "Fig.3h", "Fig.3l"},
	}
	e.run = func(o Options) (*Table, error) {
		return sweepSyntheticFloat(e, o, workload.AccuracyMeanSweep(), func(c *workload.Config, x float64) {
			c.Accuracy = workload.AccuracyDist{Kind: workload.DistUniform, Mean: x, Spread: workload.UniformSpread}
		})
	}
	return e
}

// figEpsilon regenerates Fig. 4a/4e/4i: effect of the tolerable error ε.
func figEpsilon() *Experiment {
	e := &Experiment{
		ID:     "fig4-epsilon",
		Title:  "Fig. 4 col 1: varying tolerable error rate ε",
		XLabel: "ε",
		Panels: [3]string{"Fig.4a", "Fig.4e", "Fig.4i"},
	}
	e.run = func(o Options) (*Table, error) {
		// ε does not influence synthetic generation (locations and
		// accuracies come from ε-independent streams), so each repetition
		// generates one instance and sweeps ε over it — the same paired
		// design as the city sweeps.
		return sweepEpsilonShared(e, o, func(rep int) (*model.Instance, uint64, error) {
			cfg := workload.Default().Scale(o.Scale)
			cfg.Seed = pointSeed(o.Seed, e.ID, rep)
			in, err := cfg.Generate()
			return in, cfg.Seed, err
		})
	}
	return e
}

// figScalability regenerates Fig. 4b/4f/4j: |T| up to 100k, |W| = 400k.
func figScalability() *Experiment {
	e := &Experiment{
		ID:     "fig4-scalability",
		Title:  "Fig. 4 col 2: scalability (|W| = 400k)",
		XLabel: "|T|",
		Panels: [3]string{"Fig.4b", "Fig.4f", "Fig.4j"},
	}
	e.run = func(o Options) (*Table, error) {
		xs := workload.ScalabilityTaskSweep()
		labels := make([]string, len(xs))
		for i, x := range xs {
			labels[i] = strconv.Itoa(workload.Scalability(x).Scale(o.Scale).NumTasks)
		}
		return sweepPool(e, o, labels, func(xIdx, rep int) (*model.Instance, uint64, error) {
			cfg := workload.Scalability(xs[xIdx]).Scale(o.Scale)
			cfg.Seed = pointSeed(o.Seed, e.ID, rep)
			in, err := cfg.Generate()
			return in, cfg.Seed, err
		})
	}
	return e
}

// figNewYork regenerates Fig. 4c/4g/4k: ε sweep on the New York trace.
func figNewYork() *Experiment {
	e := &Experiment{
		ID:     "fig4-newyork",
		Title:  "Fig. 4 col 3: varying ε on the New York check-in trace",
		XLabel: "ε",
		Panels: [3]string{"Fig.4c", "Fig.4g", "Fig.4k"},
	}
	e.run = func(o Options) (*Table, error) { return sweepCity(e, o, checkin.NewYork()) }
	return e
}

// figTokyo regenerates Fig. 4d/4h/4l: ε sweep on the Tokyo trace.
func figTokyo() *Experiment {
	e := &Experiment{
		ID:     "fig4-tokyo",
		Title:  "Fig. 4 col 4: varying ε on the Tokyo check-in trace",
		XLabel: "ε",
		Panels: [3]string{"Fig.4d", "Fig.4h", "Fig.4l"},
	}
	e.run = func(o Options) (*Table, error) { return sweepCity(e, o, checkin.Tokyo()) }
	return e
}

func newTable(e *Experiment, o Options) *Table {
	return &Table{
		ID:         e.ID,
		Title:      e.Title,
		XLabel:     e.XLabel,
		Panels:     e.Panels,
		Algorithms: o.Algorithms,
		Cells:      map[string]map[string]Metrics{},
		Scale:      o.Scale,
	}
}

// sweepSynthetic runs an integer-valued sweep over the synthetic workload.
// mutate applies the sweep value to the config (before scaling) and may
// return a fixed label; an empty label means "use the scaled task count".
func sweepSynthetic(e *Experiment, o Options, xs []int, mutate func(*workload.Config, int) string) (*Table, error) {
	labels := make([]string, len(xs))
	for i, x := range xs {
		cfg := workload.Default()
		labels[i] = mutate(&cfg, x)
		if labels[i] == "" {
			labels[i] = strconv.Itoa(cfg.Scale(o.Scale).NumTasks)
		}
	}
	return sweepPool(e, o, labels, func(xIdx, rep int) (*model.Instance, uint64, error) {
		cfg := workload.Default()
		mutate(&cfg, xs[xIdx])
		cfg = cfg.Scale(o.Scale)
		cfg.Seed = pointSeed(o.Seed, e.ID, rep)
		in, err := cfg.Generate()
		return in, cfg.Seed, err
	})
}

// sweepSyntheticFloat is sweepSynthetic for float sweeps (ε, accuracy µ).
func sweepSyntheticFloat(e *Experiment, o Options, xs []float64, mutate func(*workload.Config, float64)) (*Table, error) {
	labels := make([]string, len(xs))
	for i, x := range xs {
		labels[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return sweepPool(e, o, labels, func(xIdx, rep int) (*model.Instance, uint64, error) {
		cfg := workload.Default()
		mutate(&cfg, xs[xIdx])
		cfg = cfg.Scale(o.Scale)
		cfg.Seed = pointSeed(o.Seed, e.ID, rep)
		in, err := cfg.Generate()
		return in, cfg.Seed, err
	})
}

// sweepCity runs the ε sweep on a check-in city trace. The trace is
// generated once per repetition at the strictest ε of the sweep (so every
// sweep point is feasible) and the instance's ε is overridden per point,
// mirroring how the paper reuses one dataset across ε values.
func sweepCity(e *Experiment, o Options, city checkin.CityConfig) (*Table, error) {
	city = city.Scale(o.Scale)
	city.Epsilon = workload.EpsilonSweep()[0] // strictest: δ is largest
	return sweepEpsilonShared(e, o, func(rep int) (*model.Instance, uint64, error) {
		cfg := city
		cfg.Seed = pointSeed(o.Seed, e.ID, rep)
		tr, err := checkin.Generate(cfg)
		if err != nil {
			return nil, 0, err
		}
		return tr.Instance, cfg.Seed, nil
	})
}

// sweepPool runs one job per (sweep point × repetition) on the parallel
// worker pool and folds the per-job metrics into the table in deterministic
// x-major, rep-minor order — the exact accumulation order of a serial
// sweep, so results are identical at any parallelism. Progress for a sweep
// point is reported when its last repetition completes.
func sweepPool(e *Experiment, o Options, labels []string, gen func(xIdx, rep int) (*model.Instance, uint64, error)) (*Table, error) {
	table := newTable(e, o)
	reps := o.Reps
	results := make([]map[string]Metrics, len(labels)*reps)
	pending := make([]atomic.Int32, len(labels))
	for i := range pending {
		pending[i].Store(int32(reps))
	}
	par := o.parallelism()
	err := forEach(len(results), par, func(j int) error {
		xIdx, rep := j/reps, j%reps
		in, seed, err := gen(xIdx, rep)
		if err != nil {
			return fmt.Errorf("%s x=%s: %w", e.ID, labels[xIdx], err)
		}
		m, err := runPoint(in, o.Algorithms, seed, par == 1)
		if err != nil {
			return fmt.Errorf("%s x=%s: %w", e.ID, labels[xIdx], err)
		}
		results[j] = m
		if pending[xIdx].Add(-1) == 0 {
			o.progress("%s: %s=%s done", e.ID, e.XLabel, labels[xIdx])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for xIdx, label := range labels {
		cell := map[string]Metrics{}
		for rep := 0; rep < reps; rep++ {
			accumulate(cell, results[xIdx*reps+rep])
		}
		table.Xs = append(table.Xs, label)
		table.Cells[label] = cell
	}
	return table, nil
}

// sweepEpsilonShared runs the paired ε sweeps: one generated instance per
// repetition (from gen), every ε of the sweep evaluated on it. Repetitions
// run as pool jobs; within a job the ε points run serially so all of them
// see the same instance. Accumulation is rep-major, matching the serial
// order exactly.
func sweepEpsilonShared(e *Experiment, o Options, gen func(rep int) (*model.Instance, uint64, error)) (*Table, error) {
	table := newTable(e, o)
	eps := workload.EpsilonSweep()
	labels := make([]string, len(eps))
	for i, x := range eps {
		labels[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	results := make([][]map[string]Metrics, o.Reps)
	par := o.parallelism()
	err := forEach(o.Reps, par, func(rep int) error {
		base, seed, err := gen(rep)
		if err != nil {
			return fmt.Errorf("%s rep %d: %w", e.ID, rep, err)
		}
		out := make([]map[string]Metrics, len(eps))
		for i, x := range eps {
			in := *base // shallow copy: tasks/workers shared, ε overridden
			in.Epsilon = x
			m, err := runPoint(&in, o.Algorithms, seed, par == 1)
			if err != nil {
				return fmt.Errorf("%s x=%s: %w", e.ID, labels[i], err)
			}
			out[i] = m
			o.progress("%s: rep %d ε=%s done", e.ID, rep, labels[i])
		}
		results[rep] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < o.Reps; rep++ {
		for i, label := range labels {
			if _, ok := table.Cells[label]; !ok {
				table.Xs = append(table.Xs, label)
				table.Cells[label] = map[string]Metrics{}
			}
			accumulate(table.Cells[label], results[rep][i])
		}
	}
	return table, nil
}

// FormatTableIV renders the synthetic dataset settings (Table IV).
func FormatTableIV() string {
	d := workload.Default()
	return fmt.Sprintf(`Table IV: synthetic dataset (defaults in brackets)
  |T|                 1000, 2000, [3000], 4000, 5000
  |W|                 [40000]
  K                   4, 5, [6], 7, 8
  Historical accuracy Normal: µ ∈ {0.82, 0.84, [0.86], 0.88, 0.90}, σ = 0.05
                      Uniform: mean ∈ {0.82, 0.84, [0.86], 0.88, 0.90}
  ε                   0.06, [0.10], 0.14, 0.18, 0.22
  Scalability         |T| = 10k..100k, |W| = 400k
  Grid                %.0f × %.0f units of 10 m, dmax = %.0f (300 m)
`, d.GridWidth, d.GridHeight, d.DMax)
}

// FormatTableV renders the real-dataset presets (Table V).
func FormatTableV() string {
	out := "Table V: check-in dataset presets (simulated Foursquare traces)\n"
	out += fmt.Sprintf("  %-9s %8s %9s %3s %22s %s\n", "Dataset", "|T|", "|W|", "K", "epsilon sweep", "Accuracy")
	for _, c := range checkin.Cities() {
		out += fmt.Sprintf("  %-9s %8d %9d %3d %22s µ=%.2f σ=%.2f\n",
			c.Name, c.NumTasks, c.NumCheckins, c.K, "[0.06,0.10,0.14,0.18,0.22]", c.AccMean, c.AccStd)
	}
	return out
}
