package checkin

import (
	"errors"
	"math"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// smallCity is a fast, feasibility-safe scaled-down New York.
func smallCity() CityConfig {
	return NewYork().Scale(0.01) // 37 tasks, ~2274 check-ins
}

func TestPresetsMatchTableV(t *testing.T) {
	ny := NewYork()
	if ny.NumTasks != 3717 || ny.NumCheckins != 227428 {
		t.Fatalf("New York preset = %d tasks / %d check-ins", ny.NumTasks, ny.NumCheckins)
	}
	tk := Tokyo()
	if tk.NumTasks != 9317 || tk.NumCheckins != 573703 {
		t.Fatalf("Tokyo preset = %d tasks / %d check-ins", tk.NumTasks, tk.NumCheckins)
	}
	for _, c := range Cities() {
		if c.K != 6 || c.AccMean != 0.86 || c.AccStd != 0.05 {
			t.Fatalf("%s: K/accuracy deviate from Table V: %+v", c.Name, c)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", c.Name, err)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	c := smallCity()
	tr, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	in := tr.Instance
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != c.NumTasks {
		t.Fatalf("%d tasks, want %d", len(in.Tasks), c.NumTasks)
	}
	if len(in.Workers) != c.NumCheckins {
		t.Fatalf("%d workers, want %d", len(in.Workers), c.NumCheckins)
	}
	if len(tr.Users) != c.NumUsers || len(tr.POIs) != c.NumPOIs {
		t.Fatalf("users/POIs = %d/%d", len(tr.Users), len(tr.POIs))
	}
	// Chronological arrival: worker i+1 is check-in i.
	for i, w := range in.Workers {
		if w.Index != i+1 {
			t.Fatalf("worker %d has index %d", i, w.Index)
		}
		if w.Loc != tr.Checkins[i].Loc {
			t.Fatalf("worker %d location differs from its check-in", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Instance.Tasks) != len(b.Instance.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range a.Instance.Tasks {
		if a.Instance.Tasks[i] != b.Instance.Tasks[i] {
			t.Fatalf("task %d differs across identical generations", i)
		}
	}
	for i := range a.Instance.Workers {
		if a.Instance.Workers[i] != b.Instance.Workers[i] {
			t.Fatalf("worker %d differs across identical generations", i)
		}
	}
}

func TestTasksInsideHull(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Instance.Tasks {
		if !geo.InConvexHull(tr.Hull, task.Loc) {
			t.Fatalf("task %d at %v outside the check-in hull", task.ID, task.Loc)
		}
	}
}

func TestTasksFeasible(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	ci := model.NewCandidateIndex(tr.Instance)
	if err := ci.CheckFeasible(); err != nil {
		t.Fatalf("generated city instance infeasible: %v", err)
	}
}

// TestUserRevisitBehaviour: all of a user's check-ins happen at POIs within
// the user's preference radius of home (plus GPS jitter) — the
// region-preference property from Yang et al. the generator must reproduce.
func TestUserRevisitBehaviour(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	for i, ck := range tr.Checkins {
		u := tr.Users[ck.User]
		// Clamping to the grid can only move points inward, so the radius
		// bound still holds.
		if d := ck.Loc.Dist(u.Home); d > u.PrefRadius+checkinJitter+1e-9 {
			t.Fatalf("check-in %d is %.2f from home, radius %.2f", i, d, u.PrefRadius)
		}
		// And the visited POI itself lies within the preference radius.
		if d := tr.POIs[ck.POI].Dist(u.Home); d > u.PrefRadius+1e-9 {
			t.Fatalf("check-in %d visited a POI %.2f from home, radius %.2f", i, d, u.PrefRadius)
		}
	}
}

// TestCheckinsAtPOIs: every check-in location sits within the GPS jitter of
// its visited POI — supply concentrates exactly where tasks can be.
func TestCheckinsAtPOIs(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	for i, ck := range tr.Checkins {
		if d := ck.Loc.Dist(tr.POIs[ck.POI]); d > checkinJitter+1e-9 {
			t.Fatalf("check-in %d is %.2f from its POI", i, d)
		}
	}
}

// TestActivityHeavyTailed: the top 10%% most active users must account for
// well over 10%% of check-ins (Zipf skew).
func TestActivityHeavyTailed(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(tr.Users))
	for _, ck := range tr.Checkins {
		counts[ck.User]++
	}
	// Users were assigned Zipf weights by id rank, so the top 10% by id are
	// the heavy hitters.
	top := len(tr.Users) / 10
	sum := 0
	for i := 0; i < top; i++ {
		sum += counts[i]
	}
	share := float64(sum) / float64(len(tr.Checkins))
	if share < 0.3 {
		t.Fatalf("top 10%% of users produced only %.1f%% of check-ins — not heavy-tailed", share*100)
	}
}

func TestAccuraciesWithinBounds(t *testing.T) {
	tr, err := Generate(smallCity())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, u := range tr.Users {
		if u.Accuracy < model.SpamThreshold || u.Accuracy > 1 {
			t.Fatalf("user %d accuracy %v out of bounds", u.ID, u.Accuracy)
		}
		sum += u.Accuracy
	}
	mean := sum / float64(len(tr.Users))
	if math.Abs(mean-0.86) > 0.02 {
		t.Fatalf("mean user accuracy %v, want ≈0.86", mean)
	}
}

func TestScalePreservesDensity(t *testing.T) {
	c := NewYork()
	s := c.Scale(0.25)
	before := float64(c.NumCheckins) / (c.GridWidth * c.GridHeight)
	after := float64(s.NumCheckins) / (s.GridWidth * s.GridHeight)
	if math.Abs(before-after)/before > 0.01 {
		t.Fatalf("check-in density changed: %v -> %v", before, after)
	}
	if got := c.Scale(1); got != c {
		t.Fatal("Scale(1) must be identity")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, mutate := range []func(*CityConfig){
		func(c *CityConfig) { c.NumTasks = 0 },
		func(c *CityConfig) { c.NumPOIs = c.NumTasks - 1 },
		func(c *CityConfig) { c.GridWidth = 0 },
		func(c *CityConfig) { c.K = 0 },
		func(c *CityConfig) { c.Epsilon = 1 },
		func(c *CityConfig) { c.AccMean = 0.2 },
	} {
		c := NewYork()
		mutate(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("mutation accepted: %+v", c)
		}
	}
}

func TestNotEnoughPOIs(t *testing.T) {
	c := smallCity()
	// Demand far more tasks than the feasible POI pool can provide but keep
	// NumPOIs ≥ NumTasks so Validate passes and generation itself fails.
	c.NumTasks = c.NumPOIs
	c.NumCheckins = 50 // almost no workers → almost no feasible POIs
	if _, err := Generate(c); !errors.Is(err, ErrNotEnoughPOIs) {
		t.Fatalf("err = %v, want ErrNotEnoughPOIs", err)
	}
}
