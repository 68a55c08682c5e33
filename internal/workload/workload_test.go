package workload

import (
	"errors"
	"math"
	"testing"

	"ltc/internal/model"
)

func smallConfig() Config {
	c := Default().Scale(0.02) // 60 tasks, 800 workers on a ~141×141 grid
	return c
}

func TestDefaultMatchesTableIV(t *testing.T) {
	c := Default()
	if c.NumTasks != 3000 || c.NumWorkers != 40000 || c.K != 6 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Epsilon != 0.1 || c.DMax != 30 || c.GridWidth != 1000 || c.GridHeight != 1000 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Accuracy.Kind != DistNormal || c.Accuracy.Mean != 0.86 || c.Accuracy.Spread != 0.05 {
		t.Fatalf("accuracy = %+v", c.Accuracy)
	}
}

func TestSweepsMatchTableIV(t *testing.T) {
	if got := TaskSweep(); len(got) != 5 || got[0] != 1000 || got[4] != 5000 {
		t.Fatalf("TaskSweep = %v", got)
	}
	if got := CapacitySweep(); len(got) != 5 || got[0] != 4 || got[4] != 8 {
		t.Fatalf("CapacitySweep = %v", got)
	}
	if got := AccuracyMeanSweep(); len(got) != 5 || got[0] != 0.82 || got[4] != 0.90 {
		t.Fatalf("AccuracyMeanSweep = %v", got)
	}
	if got := EpsilonSweep(); len(got) != 5 || got[0] != 0.06 || got[4] != 0.22 {
		t.Fatalf("EpsilonSweep = %v", got)
	}
	if got := ScalabilityTaskSweep(); len(got) != 6 || got[5] != 100000 {
		t.Fatalf("ScalabilityTaskSweep = %v", got)
	}
	if s := Scalability(10000); s.NumTasks != 10000 || s.NumWorkers != 400000 {
		t.Fatalf("Scalability = %+v", s)
	}
}

func TestGenerateStructure(t *testing.T) {
	c := smallConfig()
	in, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != c.NumTasks || len(in.Workers) != c.NumWorkers {
		t.Fatalf("counts = %d tasks, %d workers", len(in.Tasks), len(in.Workers))
	}
	for _, task := range in.Tasks {
		if task.Loc.X < 0 || task.Loc.X > c.GridWidth || task.Loc.Y < 0 || task.Loc.Y > c.GridHeight {
			t.Fatalf("task %d outside grid: %v", task.ID, task.Loc)
		}
	}
	for _, w := range in.Workers {
		if w.Acc < model.SpamThreshold || w.Acc > 1 {
			t.Fatalf("worker %d accuracy %v outside [0.66, 1]", w.Index, w.Acc)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := smallConfig()
	a, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workers {
		if a.Workers[i] != b.Workers[i] {
			t.Fatalf("worker %d differs across identical generations", i)
		}
	}
	c2 := c
	c2.Seed = c.Seed + 1
	d, err := c2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Workers {
		if a.Workers[i] != d.Workers[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestSeedStreamIndependence: changing the accuracy distribution must not
// move task/worker locations (they come from an independent stream), so a
// sweep over accuracy only varies accuracies.
func TestSeedStreamIndependence(t *testing.T) {
	c1 := smallConfig()
	c2 := c1
	c2.Accuracy.Mean = 0.90
	a, err := c1.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workers {
		if a.Workers[i].Loc != b.Workers[i].Loc {
			t.Fatalf("worker %d location moved when only accuracy changed", i)
		}
		if a.Workers[i].Acc == b.Workers[i].Acc {
			continue // can coincide occasionally
		}
	}
	for i := range a.Tasks {
		if a.Tasks[i].Loc != b.Tasks[i].Loc {
			t.Fatalf("task %d location moved when only accuracy changed", i)
		}
	}
}

func TestAccuracyMeanTracksConfig(t *testing.T) {
	for _, mean := range AccuracyMeanSweep() {
		c := smallConfig()
		c.NumWorkers = 5000
		c.Accuracy.Mean = mean
		in, err := c.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range in.Workers {
			sum += w.Acc
		}
		got := sum / float64(len(in.Workers))
		// Truncation to [0.66, 1] biases the top of the sweep slightly
		// downward; 0.01 absolute tolerance covers it.
		if math.Abs(got-mean) > 0.01 {
			t.Fatalf("mean accuracy %v, config wants %v", got, mean)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	c := smallConfig()
	c.NumWorkers = 5000
	c.Accuracy = AccuracyDist{Kind: DistUniform, Mean: 0.86, Spread: UniformSpread}
	in, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, w := range in.Workers {
		lo = math.Min(lo, w.Acc)
		hi = math.Max(hi, w.Acc)
	}
	if lo < 0.76-1e-9 || hi > 0.96+1e-9 {
		t.Fatalf("uniform samples span [%v, %v], want within [0.76, 0.96]", lo, hi)
	}
	if hi-lo < 0.15 {
		t.Fatalf("uniform samples span only [%v, %v] — not spread out", lo, hi)
	}
}

func TestScalePreservesDensity(t *testing.T) {
	c := Default()
	s := c.Scale(0.25)
	densityBefore := float64(c.NumWorkers) / (c.GridWidth * c.GridHeight)
	densityAfter := float64(s.NumWorkers) / (s.GridWidth * s.GridHeight)
	if math.Abs(densityBefore-densityAfter)/densityBefore > 0.01 {
		t.Fatalf("density changed: %v -> %v", densityBefore, densityAfter)
	}
	if s.NumTasks != 750 || s.NumWorkers != 10000 {
		t.Fatalf("scaled counts = %d, %d", s.NumTasks, s.NumWorkers)
	}
	if got := c.Scale(1); got != c {
		t.Fatal("Scale(1) must be identity")
	}
	if got := c.Scale(0); got != c {
		t.Fatal("Scale(0) must be identity (guard)")
	}
	tiny := c.Scale(1e-9)
	if tiny.NumTasks < 1 || tiny.NumWorkers < 1 {
		t.Fatal("scaling must keep at least one task and worker")
	}
}

func TestValidateErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"zero tasks", func(c *Config) { c.NumTasks = 0 }, ErrBadCounts},
		{"zero workers", func(c *Config) { c.NumWorkers = 0 }, ErrBadCounts},
		{"zero grid", func(c *Config) { c.GridWidth = 0 }, ErrBadGrid},
		{"zero dmax", func(c *Config) { c.DMax = 0 }, ErrBadGrid},
		{"negative dmax", func(c *Config) { c.DMax = -5 }, ErrBadGrid},
		{"minacc above 1", func(c *Config) { c.MinAcc = 1.5 }, model.ErrBadMinAcc},
		{"minacc one", func(c *Config) { c.MinAcc = 1 }, model.ErrBadMinAcc},
		{"negative minacc", func(c *Config) { c.MinAcc = -1 }, model.ErrBadMinAcc},
		{"low mean", func(c *Config) { c.Accuracy.Mean = 0.5 }, ErrBadDist},
		{"bad k", func(c *Config) { c.K = 0 }, model.ErrBadCapacity},
		{"bad eps", func(c *Config) { c.Epsilon = 0 }, model.ErrBadEpsilon},
	} {
		c := Default()
		tc.mutate(&c)
		if _, err := c.Generate(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDefaultScaledIsFeasible: the scaled-down default workload must give
// every task enough nearby credit to complete — the generator's core
// usefulness property.
func TestDefaultScaledIsFeasible(t *testing.T) {
	in, err := smallConfig().Generate()
	if err != nil {
		t.Fatal(err)
	}
	ci := model.NewCandidateIndex(in)
	if err := ci.CheckFeasible(); err != nil {
		t.Fatalf("scaled default workload infeasible: %v", err)
	}
}

func TestDistKindString(t *testing.T) {
	if DistNormal.String() != "Normal" || DistUniform.String() != "Uniform" {
		t.Fatal("DistKind strings wrong")
	}
}
