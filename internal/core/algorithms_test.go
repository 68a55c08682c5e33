package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ltc/internal/flow"
	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// randomInstance builds a random geometric LTC instance with tasks in a
// region and workers clustered near tasks (guaranteeing eligibility), then
// retries until the instance is feasible.
func randomInstance(rng *rand.Rand, nTasks, nWorkers, k int, eps float64) *model.Instance {
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%20 == 0 {
			// The requested parameters may be structurally infeasible
			// (e.g. K·|W| below the total assignment demand); grow supply.
			nWorkers += nWorkers / 2
		}
		in := &model.Instance{
			Epsilon: eps,
			K:       k,
			Model:   model.SigmoidDistance{DMax: 30},
			MinAcc:  0.66,
		}
		region := 120.0
		for t := 0; t < nTasks; t++ {
			in.Tasks = append(in.Tasks, model.Task{
				ID:  model.TaskID(t),
				Loc: geo.Point{X: rng.Float64() * region, Y: rng.Float64() * region},
			})
		}
		for w := 1; w <= nWorkers; w++ {
			// Place each worker near a random task so candidates exist.
			anchor := in.Tasks[rng.IntN(nTasks)].Loc
			in.Workers = append(in.Workers, model.Worker{
				Index: w,
				Loc: geo.Point{
					X: anchor.X + (rng.Float64()-0.5)*30,
					Y: anchor.Y + (rng.Float64()-0.5)*30,
				},
				Acc: 0.8 + rng.Float64()*0.2,
			})
		}
		ci := model.NewCandidateIndex(in)
		if ci.CheckFeasible() == nil && completableByAll(in, ci) {
			return in
		}
		if attempt > 200 {
			panic("randomInstance: could not build a feasible instance")
		}
	}
}

// completableByAll reports whether every deterministic algorithm — the ones
// the tests assert completion for — finishes the instance. CheckFeasible
// ignores capacity, and on scarce instances (small K) any one heuristic can
// strand credit that the others bank, so each must be certified
// individually; only Random is exempt (the tests tolerate ErrIncomplete
// for it).
func completableByAll(in *model.Instance, ci *model.CandidateIndex) bool {
	if _, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewLAF(in, ci)
	}); err != nil {
		return false
	}
	if _, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewAAM(in, ci)
	}); err != nil {
		return false
	}
	if _, err := RunOffline(in, ci, BaseOff{}); err != nil {
		return false
	}
	_, err := RunOffline(in, ci, &MCFLTC{})
	return err == nil
}

func allOnlineFactories(seed uint64) map[string]OnlineFactory {
	return map[string]OnlineFactory{
		"LAF": func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) },
		"AAM": func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) },
		"Random": func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewRandom(in, ci, seed)
		},
	}
}

// TestAllAlgorithmsProduceValidArrangements is the central invariant: every
// algorithm, on every feasible instance, yields an arrangement satisfying
// capacity, eligibility, non-duplication and completion.
func TestAllAlgorithmsProduceValidArrangements(t *testing.T) {
	rng := stats.NewRand(1001)
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 2+rng.IntN(6), 40+rng.IntN(60), 1+rng.IntN(4), 0.1+rng.Float64()*0.2)
		ci := model.NewCandidateIndex(in)
		for name, factory := range allOnlineFactories(uint64(trial)) {
			res, err := RunOnline(in, ci, factory)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := res.Arrangement.Validate(in, true); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if res.Latency <= 0 || res.Latency > len(in.Workers) {
				t.Fatalf("trial %d %s: latency %d out of range", trial, name, res.Latency)
			}
		}
		for _, algo := range []Offline{&MCFLTC{}, BaseOff{}} {
			res, err := RunOffline(in, ci, algo)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, algo.Name(), err)
			}
			if err := res.Arrangement.Validate(in, true); err != nil {
				t.Fatalf("trial %d %s: %v", trial, algo.Name(), err)
			}
		}
	}
}

// TestExactIsLowerBound: on tiny instances the exact solver's latency never
// exceeds any heuristic's.
func TestExactIsLowerBound(t *testing.T) {
	rng := stats.NewRand(2002)
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 2+rng.IntN(2), 12+rng.IntN(5), 2, 0.25)
		ci := model.NewCandidateIndex(in)
		exact, err := RunOffline(in, ci, &Exact{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		for name, factory := range allOnlineFactories(uint64(trial)) {
			res, err := RunOnline(in, ci, factory)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if res.Latency < exact.Latency {
				t.Fatalf("trial %d: %s latency %d beats exact %d", trial, name, res.Latency, exact.Latency)
			}
		}
		for _, algo := range []Offline{&MCFLTC{}, BaseOff{}} {
			res, err := RunOffline(in, ci, algo)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, algo.Name(), err)
			}
			if res.Latency < exact.Latency {
				t.Fatalf("trial %d: %s latency %d beats exact %d", trial, algo.Name(), res.Latency, exact.Latency)
			}
		}
	}
}

// TestDeterminism: LAF, AAM, MCF-LTC and Base-off are deterministic;
// Random is deterministic for a fixed seed.
func TestDeterminism(t *testing.T) {
	rng := stats.NewRand(3003)
	in := randomInstance(rng, 5, 80, 3, 0.15)
	ci := model.NewCandidateIndex(in)
	run := func(name string) []int {
		var out []int
		for rep := 0; rep < 3; rep++ {
			var latency int
			switch name {
			case "LAF":
				r, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) })
				if err != nil {
					t.Fatal(err)
				}
				latency = r.Latency
			case "AAM":
				r, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) })
				if err != nil {
					t.Fatal(err)
				}
				latency = r.Latency
			case "Random":
				r, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewRandom(in, ci, 7) })
				if err != nil {
					t.Fatal(err)
				}
				latency = r.Latency
			case "MCF-LTC":
				r, err := RunOffline(in, ci, &MCFLTC{})
				if err != nil {
					t.Fatal(err)
				}
				latency = r.Latency
			case "Base-off":
				r, err := RunOffline(in, ci, BaseOff{})
				if err != nil {
					t.Fatal(err)
				}
				latency = r.Latency
			}
			out = append(out, latency)
		}
		return out
	}
	for _, name := range []string{"LAF", "AAM", "Random", "MCF-LTC", "Base-off"} {
		ls := run(name)
		if ls[0] != ls[1] || ls[1] != ls[2] {
			t.Fatalf("%s nondeterministic: %v", name, ls)
		}
	}
}

// TestRandomSeedsVary: different seeds should produce different Random
// arrangements on a non-trivial instance (the final latency may coincide
// when a scarce bottleneck task gates completion, so compare assignments).
func TestRandomSeedsVary(t *testing.T) {
	rng := stats.NewRand(4004)
	in := randomInstance(rng, 6, 100, 2, 0.15)
	ci := model.NewCandidateIndex(in)
	signatures := map[string]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		r, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewRandom(in, ci, seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		sig := make([]byte, 0, len(r.Arrangement.Pairs)*3)
		for _, p := range r.Arrangement.Pairs {
			sig = append(sig, byte(p.Worker), byte(p.Worker>>8), byte(p.Task))
		}
		signatures[string(sig)] = true
	}
	if len(signatures) < 2 {
		t.Fatal("8 seeds produced identical arrangements — RNG not wired in")
	}
}

// TestTheorem2Bounds: with the constant-accuracy model of Theorem 2's
// McNaughton argument, the exact optimum respects the lower bound |T|δ/K.
func TestTheorem2Bounds(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.25, // δ ≈ 2.77
		K:       2,
		Model:   model.ConstantAccuracy{P: 1.0}, // Acc* = 1 per assignment
		MinAcc:  0.66,
	}
	for t0 := 0; t0 < 3; t0++ {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(t0)})
	}
	for w := 1; w <= 10; w++ {
		in.Workers = append(in.Workers, model.Worker{Index: w, Acc: 1.0})
	}
	ci := model.NewCandidateIndex(in)
	res, err := RunOffline(in, ci, &Exact{})
	if err != nil {
		t.Fatal(err)
	}
	delta := in.Delta()
	lower := float64(len(in.Tasks)) * delta / float64(in.K)
	if float64(res.Latency) < lower {
		t.Fatalf("optimal latency %d below Theorem 2 lower bound %.2f", res.Latency, lower)
	}
	// With Acc* = 1 each task needs ⌈δ⌉ = 3 workers: 9 assignments, K=2 →
	// optimum is ⌈9/2⌉ = 5.
	if res.Latency != 5 {
		t.Fatalf("constant-accuracy optimum = %d, want 5", res.Latency)
	}
}

// TestAAMStrategySwitching: AAM starts in LGF when |T| ≥ K (avg = |T|δ/K ≥
// δ = maxRemain) and the hybrid uses both strategies on a typical run.
func TestAAMStrategySwitching(t *testing.T) {
	rng := stats.NewRand(5005)
	in := randomInstance(rng, 6, 120, 2, 0.15)
	ci := model.NewCandidateIndex(in)
	aam := NewAAM(in, ci)
	for _, w := range in.Workers {
		if aam.Done() {
			break
		}
		aam.Arrive(w)
	}
	lgf, lrf := aam.StrategyCounts()
	if lgf == 0 {
		t.Fatal("hybrid AAM never used LGF")
	}
	if lrf == 0 {
		t.Fatal("hybrid AAM never used LRF (tail tasks should trigger it)")
	}
	if !aam.Done() {
		t.Fatal("AAM did not finish")
	}
}

// TestAAMAblationsComplete: the LGF-only and LRF-only ablations still
// produce valid complete arrangements.
func TestAAMAblationsComplete(t *testing.T) {
	rng := stats.NewRand(6006)
	in := randomInstance(rng, 5, 100, 2, 0.15)
	ci := model.NewCandidateIndex(in)
	for _, s := range []AAMStrategy{StrategyLGFOnly, StrategyLRFOnly} {
		res, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
			return NewAAMWithStrategy(in, ci, s)
		})
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if err := res.Arrangement.Validate(in, true); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
	}
}

// TestAAMNames: the ablation variants report distinct names.
func TestAAMNames(t *testing.T) {
	rng := stats.NewRand(1)
	in := randomInstance(rng, 2, 20, 1, 0.3)
	ci := model.NewCandidateIndex(in)
	if NewAAM(in, ci).Name() != "AAM" {
		t.Fatal("hybrid name")
	}
	if NewAAMWithStrategy(in, ci, StrategyLGFOnly).Name() != "AAM-LGF" {
		t.Fatal("LGF name")
	}
	if NewAAMWithStrategy(in, ci, StrategyLRFOnly).Name() != "AAM-LRF" {
		t.Fatal("LRF name")
	}
}

// TestMCFEnginesAgree: Dijkstra-SSPA and SPFA-SSPA are interchangeable
// inside MCF-LTC — identical latency because the tie-broken costs admit a
// unique optimum.
func TestMCFEnginesAgree(t *testing.T) {
	rng := stats.NewRand(7007)
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 3+rng.IntN(3), 40+rng.IntN(40), 2, 0.2)
		ci := model.NewCandidateIndex(in)
		rd, err := RunOffline(in, ci, &MCFLTC{Engine: flow.EngineDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RunOffline(in, ci, &MCFLTC{Engine: flow.EngineSPFA})
		if err != nil {
			t.Fatal(err)
		}
		if rd.Latency != rs.Latency {
			t.Fatalf("trial %d: dijkstra %d vs spfa %d", trial, rd.Latency, rs.Latency)
		}
	}
}

// TestMCFUnitAugmentSameResult: unit augmentation changes only the work per
// augmentation, not the optimum.
func TestMCFUnitAugmentSameResult(t *testing.T) {
	rng := stats.NewRand(8008)
	in := randomInstance(rng, 4, 60, 2, 0.2)
	ci := model.NewCandidateIndex(in)
	a, err := RunOffline(in, ci, &MCFLTC{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOffline(in, ci, &MCFLTC{UnitAugment: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Fatalf("bottleneck %d vs unit %d", a.Latency, b.Latency)
	}
}

// TestMCFBatchMultiplier: the ablation knob must keep arrangements valid;
// smaller batches emulate a more online-like MCF.
func TestMCFBatchMultiplier(t *testing.T) {
	rng := stats.NewRand(9009)
	in := randomInstance(rng, 4, 80, 2, 0.2)
	ci := model.NewCandidateIndex(in)
	for _, mult := range []float64{0.25, 0.5, 1.0, 2.0} {
		res, err := RunOffline(in, ci, &MCFLTC{BatchMultiplier: mult})
		if err != nil {
			t.Fatalf("mult %v: %v", mult, err)
		}
		if err := res.Arrangement.Validate(in, true); err != nil {
			t.Fatalf("mult %v: %v", mult, err)
		}
	}
}

// TestMCFBatchSizes checks the m = |T|·⌈δ⌉/K arithmetic of Algorithm 1
// line 1 and the ⌊1.5m⌋ first batch of line 4.
func TestMCFBatchSizes(t *testing.T) {
	in := toyInstance() // |T|=3, K=2, δ≈3.22 → ⌈δ⌉=4, m = 6
	m := &MCFLTC{}
	first, later := m.batchSizes(in)
	if later != 6 {
		t.Fatalf("batch size = %d, want 6", later)
	}
	if first != 9 {
		t.Fatalf("first batch = %d, want ⌊1.5·6⌋ = 9", first)
	}
}

// TestResultMetricsPopulated: runners must fill the efficiency metrics.
func TestResultMetricsPopulated(t *testing.T) {
	rng := stats.NewRand(123)
	in := randomInstance(rng, 3, 40, 2, 0.2)
	ci := model.NewCandidateIndex(in)
	res, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewLAF(in, ci)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
	if res.AllocBytes < 0 {
		t.Fatal("negative allocation delta")
	}
	if res.Algorithm != "LAF" {
		t.Fatalf("Algorithm = %q", res.Algorithm)
	}
	if res.WorkersSeen <= 0 || res.WorkersSeen > len(in.Workers) {
		t.Fatalf("WorkersSeen = %d", res.WorkersSeen)
	}
}

// TestOnlineNeverUsesFutureWorkers: an online algorithm's latency equals the
// number of workers it consumed — it cannot have touched workers beyond its
// completion point.
func TestOnlineNeverUsesFutureWorkers(t *testing.T) {
	rng := stats.NewRand(321)
	in := randomInstance(rng, 4, 80, 2, 0.2)
	ci := model.NewCandidateIndex(in)
	for name, factory := range allOnlineFactories(5) {
		res, err := RunOnline(in, ci, factory)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency > res.WorkersSeen {
			t.Fatalf("%s: latency %d > workers seen %d", name, res.Latency, res.WorkersSeen)
		}
	}
}

// TestEmpiricalApproximationRatio: across random tiny instances, the
// heuristics stay within the paper's ballpark of the optimum. The proved
// ratios are 7.5 (MCF-LTC), 7.967 (LAF), 7.738 (AAM) under the paper's
// assumptions; random geometric instances sit far below those bounds, and a
// wide safety margin keeps this robust while still catching gross bugs.
func TestEmpiricalApproximationRatio(t *testing.T) {
	rng := stats.NewRand(55)
	worst := 0.0
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 2, 10+rng.IntN(4), 2, 0.3)
		ci := model.NewCandidateIndex(in)
		exact, err := RunOffline(in, ci, &Exact{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Offline{&MCFLTC{}, BaseOff{}} {
			res, err := RunOffline(in, ci, algo)
			if err != nil {
				t.Fatal(err)
			}
			if r := float64(res.Latency) / float64(exact.Latency); r > worst {
				worst = r
			}
		}
	}
	if worst > 8.0 {
		t.Fatalf("worst offline ratio %.2f exceeds the paper's guarantee regime", worst)
	}
}

// TestExactBudgetExhausted: a deliberately hard instance with a tiny budget
// must return ErrSearchBudget rather than a wrong answer.
func TestExactBudgetExhausted(t *testing.T) {
	rng := stats.NewRand(66)
	in := randomInstance(rng, 6, 60, 3, 0.1)
	ci := model.NewCandidateIndex(in)
	_, err := RunOffline(in, ci, &Exact{MaxNodes: 10})
	if err == nil {
		t.Fatal("expected an error with MaxNodes=10")
	}
}

// TestTaskStateAccounting exercises the shared bookkeeping directly.
func TestTaskStateAccounting(t *testing.T) {
	ts := newTaskState(3, 2.0)
	if ts.allDone() {
		t.Fatal("fresh state cannot be done")
	}
	if got := ts.need(0); got != 2.0 {
		t.Fatalf("need = %v", got)
	}
	if completed := ts.add(3, 0, 1.0); completed {
		t.Fatal("half credit cannot complete")
	}
	if completed := ts.add(5, 0, 1.0); !completed {
		t.Fatal("full credit must complete")
	}
	if ts.add(4, 0, 5.0) {
		t.Fatal("extra credit on a done task must not re-complete")
	}
	sum, maxNeed := ts.totalNeed()
	if math.Abs(sum-4.0) > 1e-12 || math.Abs(maxNeed-2.0) > 1e-12 {
		t.Fatalf("totalNeed = (%v, %v), want (4, 2)", sum, maxNeed)
	}
	ts.add(6, 1, 2)
	ts.add(6, 2, 2)
	if !ts.allDone() {
		t.Fatal("all tasks credited, state must be done")
	}
	// The same adds built the arrangement: pairs in grant order, S[t], and
	// the latency as a max over worker indices.
	wantPairs := []model.Assignment{{Worker: 3, Task: 0}, {Worker: 5, Task: 0}, {Worker: 4, Task: 0}, {Worker: 6, Task: 1}, {Worker: 6, Task: 2}}
	if !slices.Equal(ts.arr.Pairs, wantPairs) || !slices.Equal(ts.arr.Accumulated, []float64{7, 2, 2}) || ts.arr.Latency() != 6 {
		t.Fatalf("arrangement %+v latency %d", ts.arr, ts.arr.Latency())
	}
}
