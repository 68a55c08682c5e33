package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// The named workload scenarios. Everything measured before this layer used
// spatially uniform check-ins (Table IV's setting); city-scale traffic is
// dominated by the opposite — hotspots, rush-hour drift and flash crowds —
// exactly the regimes where spatial sharding degenerates into one hot
// mutex. Each scenario is a seed-deterministic generator producing a
// standard model.Instance, so every downstream layer (Session, Platform,
// churn replay, benchmarks) runs unchanged on skewed traffic.
const (
	// ScenarioUniform is the Table IV baseline: tasks and workers drawn
	// uniformly over the grid. Generate delegates to Config.Generate, so a
	// uniform Scenario is byte-identical to the plain workload generator.
	ScenarioUniform = "uniform"
	// ScenarioHotspot draws task and worker locations from a Zipf
	// distribution over a grid of tiles: a handful of tiles receive most
	// of the load (the "popular POI" regime). Shape: hotspotTiles,
	// workerSkew, taskSkew.
	ScenarioHotspot = "hotspot"
	// ScenarioFlashCrowd overlays a uniform stream with a time-windowed
	// burst: workers arriving inside [burstStart, burstEnd) of the stream
	// mostly sample a small disc around one random center (a venue
	// letting out). Shape: burstStart, burstEnd, burstFraction,
	// burstSigma.
	ScenarioFlashCrowd = "flashcrowd"
	// ScenarioRushHour drifts the worker mass across the grid: worker i
	// samples a Gaussian around a centroid moving linearly from one grid
	// corner region to the opposite as the stream progresses; tasks line
	// the commute corridor. Shape: commuterFraction, driftSigma.
	ScenarioRushHour = "rushhour"
	// ScenarioSparseFrontier places a fraction of the tasks in a frontier
	// strip holding almost no worker mass — the tail-latency regime where
	// rare frontier workers gate completion. Shape: frontierTasks,
	// frontierWorkers, frontierWidth. Small scales may not complete the
	// frontier tasks before the stream ends; that is the point of the
	// scenario, not a bug.
	ScenarioSparseFrontier = "sparse-frontier"
)

// The scenario shapes. Fractions of the grid are of its smaller extent
// unless stated otherwise; fractions of the stream are of the worker count.
const (
	// hotspotTiles is the side of the hotspot tile grid: hotspotTiles²
	// tiles share the load by Zipf rank.
	hotspotTiles = 12
	// workerSkew is the hotspot Zipf exponent for worker placement.
	workerSkew = 1.0
	// taskSkew is the hotspot Zipf exponent for task placement. Demand
	// piles onto popular venues harder than worker supply does, so a hot
	// tile's task backlog outlives the early stream — the regime where a
	// single hot shard spends the whole run scanning a deep live task set
	// while balanced shards each scan a sliver.
	taskSkew = 1.9

	// burstStart and burstEnd bound the flash-crowd window as fractions of
	// the worker stream.
	burstStart, burstEnd = 0.3, 0.6
	// burstFraction is the probability an in-window worker belongs to the
	// crowd rather than the uniform background.
	burstFraction = 0.9
	// burstSigma is the crowd's Gaussian spread as a fraction of the grid.
	burstSigma = 0.05

	// commuterFraction is the probability a rush-hour worker samples the
	// drifting cloud rather than the uniform background.
	commuterFraction = 0.85
	// driftSigma is the drifting cloud's Gaussian spread as a fraction of
	// the grid.
	driftSigma = 0.10

	// frontierTasks and frontierWorkers are the fractions of tasks and of
	// workers placed in the frontier strip.
	frontierTasks, frontierWorkers = 0.3, 0.08
	// frontierWidth is the strip's width as a fraction of the grid width.
	frontierWidth = 0.25
)

// ScenarioKinds lists the named scenarios in presentation order.
func ScenarioKinds() []string {
	return []string{
		ScenarioUniform,
		ScenarioHotspot,
		ScenarioFlashCrowd,
		ScenarioRushHour,
		ScenarioSparseFrontier,
	}
}

// ErrBadScenario is returned for unknown scenario kinds.
var ErrBadScenario = errors.New("workload: bad scenario")

// Scenario is a named, seed-deterministic skewed-workload generator over a
// Table IV base Config. Each kind's shape is fixed (the constants above);
// NewScenario validates the kind. Scenarios compose with the dynamic task
// lifecycle via GenerateChurn (ChurnConfig.GenerateOn under the hood).
//
// Determinism: locations derive from a scenario-specific stream split off
// Base.Seed, and historical accuracies use the same stream as the base
// generator — so two scenarios over one base differ only in placement,
// never in the accuracy population.
type Scenario struct {
	Base Config
	Kind string
}

// NewScenario returns a Scenario of the given kind over base. Unknown kinds
// fail with ErrBadScenario.
func NewScenario(kind string, base Config) (Scenario, error) {
	if !slices.Contains(ScenarioKinds(), kind) {
		return Scenario{}, fmt.Errorf("%w: unknown kind %q (want one of %v)", ErrBadScenario, kind, ScenarioKinds())
	}
	return Scenario{Base: base, Kind: kind}, nil
}

// Validate checks the kind and the base config.
func (s Scenario) Validate() error {
	if !slices.Contains(ScenarioKinds(), s.Kind) {
		return fmt.Errorf("%w: unknown kind %q", ErrBadScenario, s.Kind)
	}
	return s.Base.Validate()
}

// Generate builds the scenario's instance: Base's counts, capacity, ε and
// accuracy population with the kind's spatial placement. ScenarioUniform
// delegates to Base.Generate and is bit-identical to it. Worker placement
// may depend on the worker's position in the stream (flash crowds and rush
// hours are time phenomena), so Workers must be fed in slice order for the
// scenario's temporal shape to appear.
func (s Scenario) Generate() (*model.Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind == ScenarioUniform {
		return s.Base.Generate()
	}
	c := s.Base

	// Stream 3 is the scenario placement stream; streams 0..2 belong to
	// the base and churn generators, so composing a scenario with churn
	// never re-reads a stream.
	locRng := stats.NewRand(stats.SplitSeed(c.Seed, 3))
	accRng := stats.NewRand(stats.SplitSeed(c.Seed, 1))

	in := &model.Instance{
		Tasks:   make([]model.Task, c.NumTasks),
		Workers: make([]model.Worker, c.NumWorkers),
		Epsilon: c.Epsilon,
		K:       c.K,
		Model:   model.SigmoidDistance{DMax: c.DMax},
		MinAcc:  c.MinAcc,
	}

	var taskLoc func(i int) geo.Point
	var workerLoc func(i int) geo.Point
	switch s.Kind {
	case ScenarioHotspot:
		tiles := hotspotTiles * hotspotTiles
		taskZipf := stats.NewZipf(tiles, taskSkew)
		workerZipf := stats.NewZipf(tiles, workerSkew)
		// A seeded permutation maps Zipf rank → tile, scattering the hot
		// tiles over the grid instead of stacking them in one corner; task
		// and worker draws share it, so the same tiles are hot for both —
		// just more steeply for demand (taskSkew) than supply (workerSkew).
		perm := locRng.Perm(tiles)
		tw := c.GridWidth / hotspotTiles
		th := c.GridHeight / hotspotTiles
		sample := func(z *stats.Zipf) geo.Point {
			t := perm[z.Sample(locRng)]
			tx, ty := t%hotspotTiles, t/hotspotTiles
			return geo.Point{
				X: (float64(tx) + locRng.Float64()) * tw,
				Y: (float64(ty) + locRng.Float64()) * th,
			}
		}
		taskLoc = func(int) geo.Point { return sample(taskZipf) }
		workerLoc = func(int) geo.Point { return sample(workerZipf) }

	case ScenarioFlashCrowd:
		// The burst center stays two sigmas clear of the grid edge so the
		// crowd doesn't clamp into a border line.
		margin := 2 * burstSigma * math.Min(c.GridWidth, c.GridHeight)
		center := geo.Point{
			X: margin + locRng.Float64()*(c.GridWidth-2*margin),
			Y: margin + locRng.Float64()*(c.GridHeight-2*margin),
		}
		sigma := burstSigma * math.Min(c.GridWidth, c.GridHeight)
		taskLoc = func(int) geo.Point { return s.uniformPoint(locRng) }
		workerLoc = func(i int) geo.Point {
			frac := float64(i) / float64(max(1, c.NumWorkers-1))
			inWindow := frac >= burstStart && frac < burstEnd
			if inWindow && locRng.Float64() < burstFraction {
				return s.gaussPoint(locRng, center, sigma)
			}
			return s.uniformPoint(locRng)
		}

	case ScenarioRushHour:
		// Commute corridor from a point in the lower-left quadrant to one
		// in the upper-right; the cloud's centroid drifts along it as the
		// stream progresses.
		from := geo.Point{
			X: locRng.Float64() * c.GridWidth * 0.35,
			Y: locRng.Float64() * c.GridHeight * 0.35,
		}
		to := geo.Point{
			X: c.GridWidth * (0.65 + locRng.Float64()*0.35),
			Y: c.GridHeight * (0.65 + locRng.Float64()*0.35),
		}
		sigma := driftSigma * math.Min(c.GridWidth, c.GridHeight)
		along := func(t float64) geo.Point {
			return geo.Point{X: from.X + (to.X-from.X)*t, Y: from.Y + (to.Y-from.Y)*t}
		}
		taskLoc = func(int) geo.Point {
			// Demand lines the whole corridor from the start.
			return s.gaussPoint(locRng, along(locRng.Float64()), sigma)
		}
		workerLoc = func(i int) geo.Point {
			if locRng.Float64() >= commuterFraction {
				return s.uniformPoint(locRng)
			}
			t := float64(i) / float64(max(1, c.NumWorkers-1))
			return s.gaussPoint(locRng, along(t), sigma)
		}

	case ScenarioSparseFrontier:
		// The frontier strip is the rightmost frontierWidth of the grid;
		// the core is everything left of it.
		frontierX := c.GridWidth * (1 - frontierWidth)
		corePoint := func() geo.Point {
			return geo.Point{X: locRng.Float64() * frontierX, Y: locRng.Float64() * c.GridHeight}
		}
		frontierPoint := func() geo.Point {
			return geo.Point{X: frontierX + locRng.Float64()*(c.GridWidth-frontierX), Y: locRng.Float64() * c.GridHeight}
		}
		taskLoc = func(int) geo.Point {
			if locRng.Float64() < frontierTasks {
				return frontierPoint()
			}
			return corePoint()
		}
		workerLoc = func(int) geo.Point {
			if locRng.Float64() < frontierWorkers {
				return frontierPoint()
			}
			return corePoint()
		}
	}

	for t := range in.Tasks {
		in.Tasks[t] = model.Task{ID: model.TaskID(t), Loc: taskLoc(t)}
	}
	for w := range in.Workers {
		var acc float64
		switch c.Accuracy.Kind {
		case DistUniform:
			acc = stats.UniformMean(accRng, c.Accuracy.Mean, c.Accuracy.Spread, model.SpamThreshold, 1)
		default:
			acc = stats.TruncatedNormal(accRng, c.Accuracy.Mean, c.Accuracy.Spread, model.SpamThreshold, 1)
		}
		in.Workers[w] = model.Worker{Index: w + 1, Loc: workerLoc(w), Acc: acc}
	}
	return in, nil
}

// GenerateChurn composes the scenario with the dynamic task lifecycle: the
// scenario's instance is split into initial tasks plus online posts (and
// optional TTL expiries) exactly as ChurnConfig.Generate splits the uniform
// base. c.Base is ignored — the scenario's own Base provides the instance.
func (s Scenario) GenerateChurn(c ChurnConfig) (*ChurnWorkload, error) {
	in, err := s.Generate()
	if err != nil {
		return nil, err
	}
	return c.GenerateOn(in)
}

// uniformPoint draws a point uniformly over the base grid.
func (s Scenario) uniformPoint(rng *rand.Rand) geo.Point {
	return geo.Point{X: rng.Float64() * s.Base.GridWidth, Y: rng.Float64() * s.Base.GridHeight}
}

// gaussPoint draws a Gaussian around center, clamped into the grid.
func (s Scenario) gaussPoint(rng *rand.Rand, center geo.Point, sigma float64) geo.Point {
	return geo.Point{
		X: clamp(center.X+rng.NormFloat64()*sigma, 0, s.Base.GridWidth),
		Y: clamp(center.Y+rng.NormFloat64()*sigma, 0, s.Base.GridHeight),
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
