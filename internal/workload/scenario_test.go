package workload

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

func scenarioBase() Config {
	c := Default().Scale(0.05)
	c.Seed = 11
	return c
}

func TestNewScenarioKnownKinds(t *testing.T) {
	for _, kind := range ScenarioKinds() {
		s, err := NewScenario(kind, scenarioBase())
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", kind, err)
		}
		if s.Kind != kind {
			t.Fatalf("kind %q stored as %q", kind, s.Kind)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q default knobs invalid: %v", kind, err)
		}
	}
	if _, err := NewScenario("blizzard", scenarioBase()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestScenarioValidateRejectsBadKnobs: the only settings a scenario has
// are its kind and its base config; a bad one fails Validate and Generate.
func TestScenarioValidateRejectsBadKnobs(t *testing.T) {
	unknown := Scenario{Base: scenarioBase(), Kind: "nope"}
	badBase := Scenario{Base: scenarioBase(), Kind: ScenarioHotspot}
	badBase.Base.NumTasks = 0
	for _, s := range []Scenario{unknown, badBase} {
		if err := s.Validate(); err == nil {
			t.Errorf("%q over %+v validated", s.Kind, s.Base)
		}
		if _, err := s.Generate(); err == nil {
			t.Errorf("%q over %+v generated", s.Kind, s.Base)
		}
	}
	if err := unknown.Validate(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("unknown kind: %v, want ErrBadScenario", err)
	}
}

func TestScenarioUniformMatchesBaseGenerator(t *testing.T) {
	s, err := NewScenario(ScenarioUniform, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenarioBase().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tasks, want.Tasks) || !reflect.DeepEqual(got.Workers, want.Workers) {
		t.Fatal("uniform scenario differs from Config.Generate")
	}
}

func TestScenarioDeterministicAndWellFormed(t *testing.T) {
	for _, kind := range ScenarioKinds() {
		s, err := NewScenario(kind, scenarioBase())
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: generation not deterministic", kind)
		}
		base := s.Base
		if len(a.Tasks) != base.NumTasks || len(a.Workers) != base.NumWorkers {
			t.Fatalf("%s: counts %d/%d, want %d/%d", kind, len(a.Tasks), len(a.Workers), base.NumTasks, base.NumWorkers)
		}
		for i, w := range a.Workers {
			if w.Index != i+1 {
				t.Fatalf("%s: worker %d has index %d", kind, i, w.Index)
			}
			if w.Acc < 0.66 || w.Acc > 1 {
				t.Fatalf("%s: worker accuracy %v out of range", kind, w.Acc)
			}
			if w.Loc.X < 0 || w.Loc.X > base.GridWidth || w.Loc.Y < 0 || w.Loc.Y > base.GridHeight {
				t.Fatalf("%s: worker %d at %v outside the grid", kind, i, w.Loc)
			}
		}
		for i, task := range a.Tasks {
			if int(task.ID) != i {
				t.Fatalf("%s: task %d has ID %d", kind, i, task.ID)
			}
			if task.Loc.X < 0 || task.Loc.X > base.GridWidth || task.Loc.Y < 0 || task.Loc.Y > base.GridHeight {
				t.Fatalf("%s: task %d at %v outside the grid", kind, i, task.Loc)
			}
		}
	}
}

// The accuracy population must not depend on the placement scenario: only
// locations differ between scenarios over one base.
func TestScenarioAccuracyStreamMatchesBase(t *testing.T) {
	base, err := scenarioBase().Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range ScenarioKinds()[1:] {
		s, err := NewScenario(kind, scenarioBase())
		if err != nil {
			t.Fatal(err)
		}
		in, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range in.Workers {
			if in.Workers[i].Acc != base.Workers[i].Acc {
				t.Fatalf("%s: worker %d accuracy %v != base %v", kind, i, in.Workers[i].Acc, base.Workers[i].Acc)
			}
		}
	}
}

// tileCounts buckets points into a side×side grid over the base extents.
func tileCounts(base Config, pts []geo.Point, side int) []int {
	counts := make([]int, side*side)
	for _, p := range pts {
		tx := min(side-1, int(p.X/base.GridWidth*float64(side)))
		ty := min(side-1, int(p.Y/base.GridHeight*float64(side)))
		counts[ty*side+tx]++
	}
	return counts
}

func TestHotspotConcentratesLoad(t *testing.T) {
	s, err := NewScenario(ScenarioHotspot, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, len(in.Workers))
	for i, w := range in.Workers {
		pts[i] = w.Loc
	}
	counts := tileCounts(s.Base, pts, 12)
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	uniformShare := 1.0 / float64(len(counts))
	topShare := float64(counts[0]) / float64(len(in.Workers))
	if topShare < 4*uniformShare {
		t.Fatalf("hottest tile holds %.1f%% of workers, want ≥ %.1f%% (4× uniform)", topShare*100, 4*uniformShare*100)
	}
}

func TestFlashCrowdIsTimeWindowed(t *testing.T) {
	s, err := NewScenario(ScenarioFlashCrowd, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.Workers)
	window := in.Workers[int(0.3*float64(n)):int(0.6*float64(n))]
	outside := in.Workers[:int(0.25*float64(n))]
	if spread(window) >= spread(outside)/2 {
		t.Fatalf("burst-window spread %.1f not well below background %.1f", spread(window), spread(outside))
	}
}

// spread is the RMS distance of the workers to their centroid.
func spread(ws []model.Worker) float64 {
	var cx, cy float64
	for _, w := range ws {
		cx += w.Loc.X
		cy += w.Loc.Y
	}
	cx /= float64(len(ws))
	cy /= float64(len(ws))
	var ss float64
	for _, w := range ws {
		dx, dy := w.Loc.X-cx, w.Loc.Y-cy
		ss += dx*dx + dy*dy
	}
	return math.Sqrt(ss / float64(len(ws)))
}

func TestRushHourCentroidDrifts(t *testing.T) {
	s, err := NewScenario(ScenarioRushHour, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.Workers)
	centroid := func(ws []model.Worker) geo.Point {
		var c geo.Point
		for _, w := range ws {
			c.X += w.Loc.X
			c.Y += w.Loc.Y
		}
		c.X /= float64(len(ws))
		c.Y /= float64(len(ws))
		return c
	}
	early := centroid(in.Workers[:n/5])
	late := centroid(in.Workers[4*n/5:])
	dist := math.Hypot(late.X-early.X, late.Y-early.Y)
	diag := math.Hypot(s.Base.GridWidth, s.Base.GridHeight)
	if dist < diag/4 {
		t.Fatalf("centroid drifted only %.1f over a %.1f diagonal", dist, diag)
	}
}

func TestSparseFrontierSplitsMass(t *testing.T) {
	s, err := NewScenario(ScenarioSparseFrontier, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	frontierX := s.Base.GridWidth * 0.75
	taskFrac := 0.0
	for _, task := range in.Tasks {
		if task.Loc.X >= frontierX {
			taskFrac++
		}
	}
	taskFrac /= float64(len(in.Tasks))
	workerFrac := 0.0
	for _, w := range in.Workers {
		if w.Loc.X >= frontierX {
			workerFrac++
		}
	}
	workerFrac /= float64(len(in.Workers))
	if taskFrac < 0.2 || taskFrac > 0.4 {
		t.Fatalf("frontier task fraction %.2f, want ≈ 0.3", taskFrac)
	}
	if workerFrac > 0.12 {
		t.Fatalf("frontier worker fraction %.2f, want ≈ 0.08", workerFrac)
	}
	if taskFrac <= 2*workerFrac {
		t.Fatalf("frontier not sparse: tasks %.2f vs workers %.2f", taskFrac, workerFrac)
	}
}

func TestScenarioChurnComposition(t *testing.T) {
	s, err := NewScenario(ScenarioHotspot, scenarioBase())
	if err != nil {
		t.Fatal(err)
	}
	cc := DefaultChurn(s.Base)
	cc.TTL = 300
	cw, err := s.GenerateChurn(cc)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if cw.TotalTasks != len(in.Tasks) {
		t.Fatalf("churn total %d, want %d", cw.TotalTasks, len(in.Tasks))
	}
	wantInitial := int(math.Ceil(0.6 * float64(len(in.Tasks))))
	if cw.InitialTasks != wantInitial {
		t.Fatalf("initial %d, want %d", cw.InitialTasks, wantInitial)
	}
	if !reflect.DeepEqual(cw.Instance.Tasks, in.Tasks[:wantInitial]) {
		t.Fatal("initial tasks are not the scenario's task prefix")
	}
	if !reflect.DeepEqual(cw.Instance.Workers, in.Workers) {
		t.Fatal("churn workers differ from the scenario stream")
	}
	posts, retires := 0, 0
	for _, e := range cw.Events {
		switch e.Kind {
		case EventPost:
			posts++
		case EventRetire:
			retires++
		}
	}
	if posts != cw.TotalTasks-cw.InitialTasks {
		t.Fatalf("%d posts, want %d", posts, cw.TotalTasks-cw.InitialTasks)
	}
	if retires != cw.TotalTasks {
		t.Fatalf("%d retires with TTL set, want %d", retires, cw.TotalTasks)
	}
	// GenerateOn with the full fraction keeps the instance intact.
	whole, err := ChurnConfig{InitialFraction: 1}.GenerateOn(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Events) != 0 || whole.InitialTasks != len(in.Tasks) {
		t.Fatal("InitialFraction=1 split should post nothing")
	}
	if _, err := (ChurnConfig{InitialFraction: -1}).GenerateOn(in); err == nil {
		t.Fatal("bad churn config accepted by GenerateOn")
	}
	// A broken scenario fails GenerateChurn before any splitting happens.
	bad := Scenario{Base: scenarioBase(), Kind: "nope"}
	if _, err := bad.GenerateChurn(cc); err == nil {
		t.Fatal("GenerateChurn accepted an unknown kind")
	}
}

// Scenarios inherit the base accuracy distribution kind, Uniform included.
func TestScenarioUniformAccuracyDistribution(t *testing.T) {
	base := scenarioBase()
	base.Accuracy = AccuracyDist{Kind: DistUniform, Mean: 0.86, Spread: UniformSpread}
	s, err := NewScenario(ScenarioHotspot, base)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Workers {
		if in.Workers[i].Acc != want.Workers[i].Acc {
			t.Fatalf("worker %d accuracy %v != base %v", i, in.Workers[i].Acc, want.Workers[i].Acc)
		}
	}
}
