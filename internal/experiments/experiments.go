// Package experiments regenerates the paper's evaluation (§V): every panel
// of Fig. 3 (a-l) and Fig. 4 (a-l), plus the dataset tables IV and V. Each
// experiment is one sweep; the three figure rows (latency / runtime /
// memory) come from the same runs, exactly as in the paper.
//
// Experiments run at a configurable scale factor (task/worker counts scale
// linearly, grid extents by √scale, preserving spatial density) so the
// paper-shaped curves reproduce on a laptop. Absolute numbers differ from
// the paper's 40-core C++ testbed; the reproduced signal is the relative
// ordering and trend shape — see README, "Reproducing the paper's
// experiments".
//
// Every run goes through ltc.Solve, the front door every other caller of
// the solvers uses.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"

	"ltc"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// Metrics aggregates one algorithm's repeated runs at one sweep point.
type Metrics struct {
	Latency float64 // mean max arrival index (effectiveness, Fig. row 1)
	Seconds float64 // mean wall-clock seconds (efficiency, Fig. row 2)
	MemMB   float64 // mean allocation delta in MB (efficiency, Fig. row 3)
	// Completed reports whether every repetition completed all tasks.
	Completed bool
	Reps      int
}

// Table is one experiment's results: Cells[x][algorithm].
type Table struct {
	ID     string
	Title  string
	XLabel string
	// Panels names the figure panels this table regenerates, in metric
	// order (latency, runtime, memory).
	Panels     [3]string
	Xs         []string
	Algorithms []ltc.Algorithm
	Cells      map[string]map[ltc.Algorithm]Metrics
	Scale      float64
}

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the paper's dataset sizes (default 0.05). 1.0 runs the
	// full published sizes.
	Scale float64
	// Reps repeats each sweep point with distinct seeds and averages
	// (default 3; the paper used 30).
	Reps int
	// Seed is the base seed; zero is a valid seed.
	Seed uint64
	// Algorithms restricts the algorithm set (default: all five of
	// ltc.Algorithms(), in the paper's legend order).
	Algorithms []ltc.Algorithm
	// Parallel is the sweep worker-pool size: how many (sweep point ×
	// repetition) jobs run concurrently. Non-positive uses one worker per
	// core. Results (latency values, tables, CSV) are deterministic and
	// identical at any parallelism; the efficiency metrics (Seconds, MemMB)
	// are measured under concurrency, so for paper-faithful runtime/memory
	// figures run with Parallel = 1.
	Parallel int
	// Progress, when non-nil, receives one line per completed sweep point.
	// It is never invoked concurrently, at any parallelism.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = ltc.Algorithms()
	}
	if o.Progress != nil {
		// Serialize the callback so sweep jobs running on the worker pool
		// can report progress without burdening callers with locking.
		var mu sync.Mutex
		inner := o.Progress
		o.Progress = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			inner(format, args...)
		}
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Experiment is a runnable entry of the registry.
type Experiment struct {
	ID     string
	Title  string
	XLabel string
	Panels [3]string
	run    func(o Options) (*Table, error)
}

// Run executes the experiment. A name outside ltc.Algorithms() in
// o.Algorithms is refused with ltc.ErrUnknownAlgorithm before anything runs.
func (e *Experiment) Run(o Options) (*Table, error) {
	o = o.withDefaults()
	for _, algo := range o.Algorithms {
		if !slices.Contains(ltc.Algorithms(), algo) {
			return nil, fmt.Errorf("%w: %q", ltc.ErrUnknownAlgorithm, algo)
		}
	}
	return e.run(o)
}

// ErrUnknownExperiment is returned by Lookup for unknown ids.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment id")

// Registry returns all experiments in figure order.
func Registry() []*Experiment {
	return []*Experiment{
		figTasks(), figCapacity(), figAccNormal(), figAccUniform(),
		figEpsilon(), figScalability(), figNewYork(), figTokyo(),
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (*Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runPoint solves one generated instance with every requested algorithm,
// through ltc.Solve over one shared candidate index, and returns
// per-algorithm single-run metrics. stabilize forces a GC before each run
// so the allocation-delta metric is clean; parallel sweeps skip it (a
// global GC per run would serialize the pool, and the delta is
// cross-goroutine noise there anyway).
func runPoint(in *model.Instance, algos []ltc.Algorithm, seed uint64, stabilize bool) (map[ltc.Algorithm]Metrics, error) {
	ci := ltc.NewCandidateIndex(in)
	out := make(map[ltc.Algorithm]Metrics, len(algos))
	for _, algo := range algos {
		if stabilize {
			runtime.GC() // stabilise the allocation-delta metric
		}
		res, err := ltc.Solve(in, algo, ltc.WithIndex(ci), ltc.WithSeed(seed))
		if err != nil && !errors.Is(err, ltc.ErrIncomplete) {
			return nil, fmt.Errorf("%s: %w", algo, err)
		}
		out[algo] = Metrics{
			Latency:   float64(res.Latency),
			Seconds:   res.Elapsed.Seconds(),
			MemMB:     float64(res.AllocBytes) / (1 << 20),
			Completed: res.Completed,
			Reps:      1,
		}
	}
	return out, nil
}

// accumulate folds a single-run metric set into the table cell averages.
func accumulate(dst, src map[ltc.Algorithm]Metrics) {
	for name, m := range src {
		prev, ok := dst[name]
		if !ok {
			dst[name] = m
			continue
		}
		n := float64(prev.Reps)
		prev.Latency = (prev.Latency*n + m.Latency) / (n + 1)
		prev.Seconds = (prev.Seconds*n + m.Seconds) / (n + 1)
		prev.MemMB = (prev.MemMB*n + m.MemMB) / (n + 1)
		prev.Completed = prev.Completed && m.Completed
		prev.Reps++
		dst[name] = prev
	}
}

// pointSeed derives a deterministic seed for (experiment, rep). The sweep
// point deliberately does NOT enter the seed: every x value of a sweep uses
// the same rep seeds (common random numbers), so the sweep trend is not
// confounded by workload redraws — the scarce-task tail that gates the
// MinMax latency is high-variance at laptop scales.
func pointSeed(base uint64, expID string, rep int) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, b := range []byte(expID) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return stats.SplitSeed(base^h, uint64(rep))
}

// metricNames in figure-row order.
var metricNames = [3]string{"Latency (max worker index)", "Runtime (seconds)", "Memory (MB)"}

// value extracts the metric by row index.
func (m Metrics) value(row int) float64 {
	switch row {
	case 0:
		return m.Latency
	case 1:
		return m.Seconds
	default:
		return m.MemMB
	}
}

// Format writes the table in the paper's layout: one section per figure
// panel (metric), one row per algorithm, one column per sweep value.
func (t *Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s (scale %g)\n", t.ID, t.Title, t.Scale); err != nil {
		return err
	}
	for row := 0; row < 3; row++ {
		fmt.Fprintf(w, "\n[%s] %s\n", t.Panels[row], metricNames[row])
		fmt.Fprintf(w, "%-10s", t.XLabel)
		for _, x := range t.Xs {
			fmt.Fprintf(w, " %12s", x)
		}
		fmt.Fprintln(w)
		for _, algo := range t.Algorithms {
			fmt.Fprintf(w, "%-10s", algo)
			for _, x := range t.Xs {
				m, ok := t.Cells[x][algo]
				if !ok {
					fmt.Fprintf(w, " %12s", "-")
					continue
				}
				suffix := ""
				if !m.Completed {
					suffix = "*"
				}
				switch row {
				case 0:
					fmt.Fprintf(w, " %11.0f%s", m.value(row), pad(suffix))
				default:
					fmt.Fprintf(w, " %11.4f%s", m.value(row), pad(suffix))
				}
			}
			fmt.Fprintln(w)
		}
	}
	if t.anyIncomplete() {
		fmt.Fprintln(w, "\n(* some repetitions exhausted the worker stream before completion)")
	}
	return nil
}

func pad(s string) string {
	if s == "" {
		return " "
	}
	return s
}

func (t *Table) anyIncomplete() bool {
	for _, byAlgo := range t.Cells {
		for _, m := range byAlgo {
			if !m.Completed {
				return true
			}
		}
	}
	return false
}

// CSV writes the table as long-format CSV:
// experiment,panel,metric,algorithm,x,value,completed.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,panel,metric,algorithm,x,value,completed"); err != nil {
		return err
	}
	metricCols := [3]string{"latency", "seconds", "mem_mb"}
	for row := 0; row < 3; row++ {
		for _, x := range t.Xs {
			for _, a := range slices.Sorted(maps.Keys(t.Cells[x])) {
				m := t.Cells[x][a]
				fmt.Fprintf(w, "%s,%s,%s,%s,%s,%g,%t\n",
					t.ID, t.Panels[row], metricCols[row], a,
					strings.ReplaceAll(x, ",", ";"), m.value(row), m.Completed)
			}
		}
	}
	return nil
}
