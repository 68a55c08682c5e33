package core

import (
	"errors"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// singleWorkerInstance: one worker who can finish everything at once.
func singleWorkerInstance() *model.Instance {
	return &model.Instance{
		Tasks:   []model.Task{{ID: 0}},
		Workers: []model.Worker{{Index: 1, Acc: 1}},
		Epsilon: 0.5, // δ ≈ 1.39, one Acc*=1 assignment is not enough...
		K:       1,
		Model:   model.ConstantAccuracy{P: 1}, // Acc* = 1 < δ
		MinAcc:  0.5,
	}
}

// TestSingleWorkerInsufficient: δ > 1 with a single unit-credit worker can
// never complete; every algorithm must report the incomplete stream rather
// than looping or panicking.
func TestSingleWorkerInsufficient(t *testing.T) {
	in := singleWorkerInstance()
	ci := model.NewCandidateIndex(in)
	for _, algo := range []Offline{&MCFLTC{}, BaseOff{}} {
		if _, err := RunOffline(in, ci, algo); err == nil {
			t.Fatalf("%s: expected ErrIncomplete", algo.Name())
		}
	}
	for _, factory := range []OnlineFactory{
		func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) },
		func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) },
		func(in *model.Instance, ci *model.CandidateIndex) Online { return NewRandom(in, ci, 1) },
	} {
		if _, err := RunOnline(in, ci, factory); err == nil {
			t.Fatal("expected ErrIncomplete")
		}
	}
}

// TestSingleWorkerSufficient: with a relaxed δ ≤ 1 the same worker finishes
// instantly, latency 1.
func TestSingleWorkerSufficient(t *testing.T) {
	in := singleWorkerInstance()
	in.Epsilon = 0.7 // δ ≈ 0.71 < Acc* = 1
	ci := model.NewCandidateIndex(in)
	for _, factory := range map[string]OnlineFactory{
		"LAF": func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) },
		"AAM": func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) },
	} {
		res, err := RunOnline(in, ci, factory)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency != 1 {
			t.Fatalf("latency = %d, want 1", res.Latency)
		}
	}
	res, err := RunOffline(in, ci, &MCFLTC{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 1 {
		t.Fatalf("MCF latency = %d, want 1", res.Latency)
	}
}

// TestCapacityExceedsTasks: K > |T| must not over-assign (each worker does
// each task at most once).
func TestCapacityExceedsTasks(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.2,
		K:       10, // K ≫ |T| = 2
		Model:   model.ConstantAccuracy{P: 0.95},
		MinAcc:  0.5,
	}
	in.Tasks = []model.Task{{ID: 0}, {ID: 1}}
	for w := 1; w <= 12; w++ {
		in.Workers = append(in.Workers, model.Worker{Index: w, Acc: 0.95})
	}
	ci := model.NewCandidateIndex(in)
	for name, run := range map[string]func() (*Result, error){
		"LAF": func() (*Result, error) {
			return RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) })
		},
		"AAM": func() (*Result, error) {
			return RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) })
		},
		"MCF": func() (*Result, error) { return RunOffline(in, ci, &MCFLTC{}) },
		"Off": func() (*Result, error) { return RunOffline(in, ci, BaseOff{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Arrangement.Validate(in, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// δ(0.2) ≈ 3.22, Acc* = 0.81 → 4 workers per task; with K > |T|
		// every worker does both tasks, so latency 4.
		if res.Latency != 4 {
			t.Fatalf("%s: latency = %d, want 4", name, res.Latency)
		}
	}
}

// TestWorkerWithNoCandidates: workers far from every task must be skipped
// cleanly by all algorithms.
func TestWorkerWithNoCandidates(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.3,
		K:       2,
		Model:   model.SigmoidDistance{DMax: 30},
		MinAcc:  0.5,
	}
	in.Tasks = []model.Task{{ID: 0, Loc: geo.Point{X: 0, Y: 0}}}
	// Workers 1-3 are far away (no candidates); 4-9 are close.
	for w := 1; w <= 3; w++ {
		in.Workers = append(in.Workers, model.Worker{Index: w, Loc: geo.Point{X: 500, Y: 500}, Acc: 0.95})
	}
	for w := 4; w <= 9; w++ {
		in.Workers = append(in.Workers, model.Worker{Index: w, Loc: geo.Point{X: 1, Y: 1}, Acc: 0.95})
	}
	ci := model.NewCandidateIndex(in)
	res, err := RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Arrangement.Pairs {
		if p.Worker <= 3 {
			t.Fatalf("far worker %d received an assignment", p.Worker)
		}
	}
	mcf, err := RunOffline(in, ci, &MCFLTC{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcf.Arrangement.Validate(in, true); err != nil {
		t.Fatal(err)
	}
	// With only the far workers nobody is eligible for anything: the exact
	// solver must report infeasibility before searching.
	in.Workers = in.Workers[:3]
	if _, err := (&Exact{}).Solve(in, ci); !errors.Is(err, model.ErrInfeasible) {
		t.Fatalf("Exact with no eligible worker: %v, want ErrInfeasible", err)
	}
}

// TestMCFBatchLargerThanStream: the first batch formula can exceed |W|;
// the batch must clamp and the run still complete.
func TestMCFBatchLargerThanStream(t *testing.T) {
	rng := stats.NewRand(77)
	in := randomInstance(rng, 8, 60, 2, 0.2) // first batch ≈ 1.5·8·⌈3.22⌉/2 = 24 < 60, so shrink workers
	in.Workers = in.Workers[:30]
	ci := model.NewCandidateIndex(in)
	res, err := RunOffline(in, ci, &MCFLTC{})
	if err != nil && res == nil {
		t.Fatal(err)
	}
	if err == nil {
		if vErr := res.Arrangement.Validate(in, true); vErr != nil {
			t.Fatal(vErr)
		}
	}
}

// TestMCFTinyBatchMultiplier: a multiplier that collapses the batch to a
// single worker still yields valid (if slow) arrangements.
func TestMCFTinyBatchMultiplier(t *testing.T) {
	rng := stats.NewRand(88)
	in := randomInstance(rng, 3, 40, 2, 0.25)
	ci := model.NewCandidateIndex(in)
	res, err := RunOffline(in, ci, &MCFLTC{BatchMultiplier: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Arrangement.Validate(in, true); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineArriveAfterDoneIsNoop: calling Arrive on a completed solver
// must assign nothing (the runners stop early, but the Session API or
// custom drivers may not).
func TestOnlineArriveAfterDoneIsNoop(t *testing.T) {
	rng := stats.NewRand(99)
	in := randomInstance(rng, 2, 30, 2, 0.3)
	ci := model.NewCandidateIndex(in)
	for _, algo := range []Online{NewLAF(in, ci), NewAAM(in, ci), NewRandom(in, ci, 3)} {
		for _, w := range in.Workers {
			if algo.Done() {
				break
			}
			algo.Arrive(w)
		}
		if !algo.Done() {
			t.Fatalf("%s did not complete", algo.Name())
		}
		if got := algo.Arrive(in.Workers[len(in.Workers)-1]); len(got) != 0 {
			t.Fatalf("%s assigned %v after Done", algo.Name(), got)
		}
	}
}

// TestBaseOffConsumesPointersConsistently: Base-off's remaining-supply
// bookkeeping must never go negative (each task's pointer advances exactly
// once per eligible arrival).
func TestBaseOffSupplyBookkeeping(t *testing.T) {
	rng := stats.NewRand(111)
	in := randomInstance(rng, 5, 80, 3, 0.2)
	ci := model.NewCandidateIndex(in)
	lists := ci.EligibleWorkerLists()
	// Total eligible pairs equals the sum of candidate counts over workers.
	var fromLists int
	for _, l := range lists {
		fromLists += len(l)
	}
	var fromCands int
	var buf []model.Candidate
	for _, w := range in.Workers {
		buf = ci.Candidates(w, buf[:0])
		fromCands += len(buf)
	}
	if fromLists != fromCands {
		t.Fatalf("eligible pair accounting mismatch: %d vs %d", fromLists, fromCands)
	}
}
