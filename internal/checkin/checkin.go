// Package checkin simulates Foursquare-style check-in traces as a
// substitute for the real datasets of the paper's evaluation (§V-A,
// Table V), which are not redistributable. The generator reproduces the
// structural properties the LTC algorithms are sensitive to:
//
//   - workers arrive in chronological check-in order;
//   - check-ins cluster around POI hot-spots (city districts);
//   - each user revisits a home region, with an activity radius drawn from
//     the [100 m, 500 m] (10-50 grid units) POI-familiarity range that
//     Yang et al. [17] measured on Foursquare;
//   - user activity is heavy-tailed (few users contribute many check-ins);
//   - tasks are POIs inside the convex hull of the check-in locations;
//   - historical accuracies follow Normal(0.86, 0.05), exactly as the
//     paper synthesised them for the real datasets.
//
// The NewYork and Tokyo presets reproduce Table V's cardinalities
// (|T| = 3717, |W| = 227428 and |T| = 9317, |W| = 573703).
package checkin

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// CityConfig describes a simulated city trace.
type CityConfig struct {
	Name string
	// NumTasks POIs become tasks; NumCheckins check-ins become workers.
	NumTasks    int
	NumCheckins int
	// NumUsers distinct users produce the check-ins; NumPOIs candidate POIs
	// are scattered before the convex-hull/feasibility filter picks tasks.
	NumUsers int
	NumPOIs  int
	// NumClusters district centres.
	NumClusters int
	// Grid extents in 10 m units.
	GridWidth  float64
	GridHeight float64
	// LTC parameters (Table V: K = 6, ε swept, dmax = 30).
	K       int
	Epsilon float64
	DMax    float64
	MinAcc  float64
	// AccMean/AccStd parameterise the Normal historical accuracy.
	AccMean float64
	AccStd  float64
	Seed    uint64
}

// The trace's shape, shared by both Table V presets.
const (
	// clusterStd is the Gaussian spread of POIs around their district
	// centre, in grid units.
	clusterStd = 60
	// prefMin and prefMax bound each user's activity radius: the
	// [100 m, 500 m] POI-familiarity range of Yang et al. [17], in grid
	// units.
	prefMin, prefMax = 10, 50
	// zipfS is the user- and district-activity skew exponent
	// (weight ∝ 1/rank^s).
	zipfS = 1.0
	// minHeadroom and maxHeadroom bound each task POI's nearby
	// eligible-worker credit to [min, max] × δ. The lower bound keeps
	// tasks completable with headroom; the upper bound excludes
	// hotspot-core POIs — the platform crowdsources facts about places it
	// lacks data on, and those are the less-visited POIs. The band also
	// reproduces the paper's evaluation regime, where completing all tasks
	// consumes most of the worker stream and scarce tasks contend for the
	// same workers (that contention is exactly where the algorithms
	// differ).
	minHeadroom, maxHeadroom = 2, 6
)

// NewYork returns the Table V New York preset: 3,717 tasks from 227,428
// check-ins, on a ~20 km × 20 km grid.
func NewYork() CityConfig {
	return CityConfig{
		Name:        "NewYork",
		NumTasks:    3717,
		NumCheckins: 227428,
		NumUsers:    25000,
		NumPOIs:     20000,
		NumClusters: 40,
		GridWidth:   2000,
		GridHeight:  2000,
		K:           6,
		Epsilon:     0.10,
		DMax:        30,
		MinAcc:      0.5, // eligibility radius = dmax exactly; see README "Design notes"
		AccMean:     0.86,
		AccStd:      0.05,
		Seed:        20180416, // ICDE'18 conference start date
	}
}

// Tokyo returns the Table V Tokyo preset: 9,317 tasks from 573,703
// check-ins on a ~30 km × 30 km grid.
func Tokyo() CityConfig {
	c := NewYork()
	c.Name = "Tokyo"
	c.NumTasks = 9317
	c.NumCheckins = 573703
	c.NumUsers = 60000
	c.NumPOIs = 50000
	c.NumClusters = 70
	c.GridWidth = 3000
	c.GridHeight = 3000
	return c
}

// Cities returns both Table V presets.
func Cities() []CityConfig { return []CityConfig{NewYork(), Tokyo()} }

// Scale shrinks the trace by factor while preserving density: counts scale
// by factor, grid extents by √factor. The cluster count also scales by
// factor (keeping per-cluster task/check-in counts, and hence the local
// density inside a district, unchanged — the quantity that decides whether
// worker capacity K binds, which is where the algorithms differ).
func (c CityConfig) Scale(factor float64) CityConfig {
	if factor <= 0 || factor == 1 {
		return c
	}
	side := math.Sqrt(factor)
	c.NumTasks = clampCount(float64(c.NumTasks) * factor)
	c.NumCheckins = clampCount(float64(c.NumCheckins) * factor)
	c.NumUsers = clampCount(float64(c.NumUsers) * factor)
	c.NumPOIs = clampCount(float64(c.NumPOIs) * factor)
	c.NumClusters = clampCount(float64(c.NumClusters) * factor)
	c.GridWidth *= side
	c.GridHeight *= side
	return c
}

func clampCount(x float64) int {
	n := int(math.Round(x))
	if n < 1 {
		return 1
	}
	return n
}

// Validation and generation errors.
var (
	ErrBadConfig = errors.New("checkin: invalid configuration")
	// ErrNotEnoughPOIs means the hull/feasibility filter left fewer POIs
	// than NumTasks; regenerate with more POIs or a smaller task count.
	ErrNotEnoughPOIs = errors.New("checkin: not enough feasible POIs inside the check-in hull")
)

// Validate checks the configuration.
func (c CityConfig) Validate() error {
	switch {
	case c.NumTasks <= 0, c.NumCheckins <= 0, c.NumUsers <= 0, c.NumPOIs <= 0, c.NumClusters <= 0:
		return fmt.Errorf("%w: counts must be positive", ErrBadConfig)
	case c.NumPOIs < c.NumTasks:
		return fmt.Errorf("%w: POI pool (%d) smaller than task count (%d)", ErrBadConfig, c.NumPOIs, c.NumTasks)
	case c.GridWidth <= 0, c.GridHeight <= 0:
		return fmt.Errorf("%w: geometry must be positive", ErrBadConfig)
	case c.K <= 0:
		return fmt.Errorf("%w: capacity", ErrBadConfig)
	case c.Epsilon <= 0 || c.Epsilon >= 1:
		return fmt.Errorf("%w: epsilon", ErrBadConfig)
	case c.AccMean < model.SpamThreshold || c.AccMean > 1:
		return fmt.Errorf("%w: accuracy mean", ErrBadConfig)
	}
	return nil
}

// User is a simulated platform user. Home is the user's anchor POI
// location; all of the user's check-ins happen at POIs within PrefRadius
// of it (the region-preference behaviour of [17]).
type User struct {
	ID         int
	Home       geo.Point
	HomePOI    int32
	PrefRadius float64
	Accuracy   float64
}

// Checkin is one chronological check-in event at a POI; its position in
// the trace is the worker arrival index minus one.
type Checkin struct {
	User int
	POI  int32
	Loc  geo.Point
}

// checkinJitter is the GPS-style noise radius (grid units, 10 m each)
// applied to check-in locations around the visited POI.
const checkinJitter = 2.0

// Trace is a full simulated city trace plus the derived LTC instance.
type Trace struct {
	Config   CityConfig
	Users    []User
	Checkins []Checkin
	// POIs is the unfiltered candidate pool; Hull the convex hull of the
	// check-in locations; TaskPOIs the chosen task locations.
	POIs     []geo.Point
	Hull     []geo.Point
	Instance *model.Instance
}

// Generate builds the trace and its LTC instance deterministically.
func Generate(c CityConfig) (*Trace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	clusterRng := stats.NewRand(stats.SplitSeed(c.Seed, 1))
	poiRng := stats.NewRand(stats.SplitSeed(c.Seed, 2))
	userRng := stats.NewRand(stats.SplitSeed(c.Seed, 3))
	checkinRng := stats.NewRand(stats.SplitSeed(c.Seed, 4))
	taskRng := stats.NewRand(stats.SplitSeed(c.Seed, 5))

	// District centres, kept away from the border so their POI clouds stay
	// mostly on-grid.
	margin := math.Min(clusterStd, math.Min(c.GridWidth, c.GridHeight)/4)
	centers := make([]geo.Point, c.NumClusters)
	for i := range centers {
		centers[i] = geo.Point{
			X: margin + clusterRng.Float64()*(c.GridWidth-2*margin),
			Y: margin + clusterRng.Float64()*(c.GridHeight-2*margin),
		}
	}
	// Cluster popularity is itself skewed: downtown districts dominate.
	clusterZipf := stats.NewZipf(c.NumClusters, zipfS)

	pois := make([]geo.Point, c.NumPOIs)
	for i := range pois {
		ctr := centers[clusterZipf.Sample(poiRng)]
		pois[i] = c.clampToGrid(geo.Point{
			X: ctr.X + poiRng.NormFloat64()*clusterStd,
			Y: ctr.Y + poiRng.NormFloat64()*clusterStd,
		})
	}
	poiGrid := geo.NewGridIndex(pois, prefMax)

	// Users anchor at a POI (their home neighbourhood) and only ever visit
	// POIs within their preference radius of it — check-ins happen AT
	// points of interest, as on Foursquare, so worker supply concentrates
	// exactly where tasks are.
	users := make([]User, c.NumUsers)
	visitSets := make([][]int32, c.NumUsers)
	for i := range users {
		homePOI := int32(userRng.IntN(c.NumPOIs))
		home := pois[homePOI]
		pref := prefMin + userRng.Float64()*(prefMax-prefMin)
		visits := poiGrid.Within(home, pref, nil)
		if len(visits) == 0 {
			visits = []int32{homePOI}
		}
		users[i] = User{
			ID:         i,
			Home:       home,
			HomePOI:    homePOI,
			PrefRadius: pref,
			Accuracy:   stats.TruncatedNormal(userRng, c.AccMean, c.AccStd, model.SpamThreshold, 1),
		}
		visitSets[i] = visits
	}
	userZipf := stats.NewZipf(c.NumUsers, zipfS)

	checkins := make([]Checkin, c.NumCheckins)
	workers := make([]model.Worker, c.NumCheckins)
	workerPts := make([]geo.Point, c.NumCheckins)
	for i := range checkins {
		uid := userZipf.Sample(checkinRng)
		u := &users[uid]
		poi := visitSets[uid][checkinRng.IntN(len(visitSets[uid]))]
		// Small GPS-style jitter, uniform over a disc.
		r := checkinJitter * math.Sqrt(checkinRng.Float64())
		theta := checkinRng.Float64() * 2 * math.Pi
		loc := c.clampToGrid(geo.Point{
			X: pois[poi].X + r*math.Cos(theta),
			Y: pois[poi].Y + r*math.Sin(theta),
		})
		checkins[i] = Checkin{User: u.ID, POI: poi, Loc: loc}
		workers[i] = model.Worker{Index: i + 1, Loc: loc, Acc: u.Accuracy}
		workerPts[i] = loc
	}

	hull := geo.ConvexHull(workerPts)

	// Task selection: POIs inside the hull that can actually complete
	// (enough eligible worker credit nearby), sampled uniformly.
	accModel := model.SigmoidDistance{DMax: c.DMax}
	radius := accModel.EligibilityRadius(c.MinAcc)
	widx := geo.NewGridIndex(workerPts, math.Max(radius, 1))
	delta := model.Delta(c.Epsilon)
	minCredit := minHeadroom * delta
	maxCredit := maxHeadroom * delta
	type scoredPOI struct {
		idx    int
		credit float64
	}
	var feasible []scoredPOI
	var idBuf []int32
	for pi, p := range pois {
		if !geo.InConvexHull(hull, p) {
			continue
		}
		idBuf = widx.Within(p, radius, idBuf[:0])
		credit := 0.0
		task := model.Task{Loc: p}
		for _, id := range idBuf {
			acc := accModel.Predict(workers[id], task)
			if acc >= c.MinAcc {
				credit += model.AccStar(acc)
			}
			if credit > maxCredit {
				break // plenty of supply; exact value no longer matters
			}
		}
		if credit >= minCredit {
			feasible = append(feasible, scoredPOI{idx: pi, credit: credit})
		}
	}
	if len(feasible) < c.NumTasks {
		return nil, fmt.Errorf("%w: %d feasible of %d needed", ErrNotEnoughPOIs, len(feasible), c.NumTasks)
	}
	// Prefer the tightest-supply POIs (the places the platform lacks data
	// about); POIs beyond the max-headroom band only fill remaining slots.
	// A small random perturbation (±25% of δ) keeps the cut from being a
	// hard popularity threshold while staying deterministic in the seed.
	perturbed := make([]float64, len(feasible))
	for i, f := range feasible {
		perturbed[i] = f.credit + (taskRng.Float64()-0.5)*0.5*delta
	}
	order := make([]int, len(feasible))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if perturbed[order[a]] != perturbed[order[b]] {
			return perturbed[order[a]] < perturbed[order[b]]
		}
		return feasible[order[a]].idx < feasible[order[b]].idx
	})
	chosen := order[:c.NumTasks]
	sort.Slice(chosen, func(a, b int) bool { return feasible[chosen[a]].idx < feasible[chosen[b]].idx })
	tasks := make([]model.Task, c.NumTasks)
	taskPts := make([]geo.Point, c.NumTasks)
	for i, fi := range chosen {
		p := pois[feasible[fi].idx]
		tasks[i] = model.Task{ID: model.TaskID(i), Loc: p}
		taskPts[i] = p
	}

	in := &model.Instance{
		Tasks:   tasks,
		Workers: workers,
		Epsilon: c.Epsilon,
		K:       c.K,
		Model:   accModel,
		MinAcc:  c.MinAcc,
	}
	return &Trace{
		Config:   c,
		Users:    users,
		Checkins: checkins,
		POIs:     pois,
		Hull:     hull,
		Instance: in,
	}, nil
}

func (c CityConfig) clampToGrid(p geo.Point) geo.Point {
	return geo.Point{
		X: math.Min(c.GridWidth, math.Max(0, p.X)),
		Y: math.Min(c.GridHeight, math.Max(0, p.Y)),
	}
}
