package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ltc/internal/geo"
)

func TestDeltaKnownValues(t *testing.T) {
	// Example 2: ε = 0.2 → δ = 2 ln 5 ≈ 3.22.
	if d := Delta(0.2); math.Abs(d-3.2189) > 1e-3 {
		t.Fatalf("Delta(0.2) = %v, want ≈3.2189", d)
	}
	// ε = e^{-1/2} → δ = 1 (used in the NP-hardness reduction).
	if d := Delta(math.Exp(-0.5)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Delta(e^-0.5) = %v, want 1", d)
	}
	// Default evaluation setting ε = 0.1 → δ ≈ 4.605.
	if d := Delta(0.1); math.Abs(d-4.60517) > 1e-4 {
		t.Fatalf("Delta(0.1) = %v", d)
	}
}

func TestDeltaPanicsOutsideUnitInterval(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Delta(%v) did not panic", eps)
				}
			}()
			Delta(eps)
		}()
	}
}

func TestAccStar(t *testing.T) {
	for _, tc := range []struct{ acc, want float64 }{
		{1.0, 1.0}, {0.5, 0.0}, {0.96, 0.8464}, {0.98, 0.9216}, {0.66, 0.1024},
	} {
		if got := AccStar(tc.acc); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("AccStar(%v) = %v, want %v", tc.acc, got, tc.want)
		}
	}
}

func TestCompleted(t *testing.T) {
	d := Delta(0.1)
	if !Completed(d, d) || !Completed(d-1e-12, d) {
		t.Fatal("credit at/just below δ within slack must complete")
	}
	if Completed(d-0.01, d) {
		t.Fatal("credit clearly below δ must not complete")
	}
}

func TestSigmoidDistanceMatchesEq1(t *testing.T) {
	m := SigmoidDistance{DMax: 30}
	w := Worker{Index: 1, Loc: geo.Point{X: 0, Y: 0}, Acc: 0.9}
	// At distance 0: Acc ≈ p (sigmoid saturated).
	if got := m.Predict(w, Task{Loc: geo.Point{X: 0, Y: 0}}); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("Acc at d=0 = %v, want ≈0.9", got)
	}
	// At distance dmax: Acc = p/2 exactly.
	if got := m.Predict(w, Task{Loc: geo.Point{X: 30, Y: 0}}); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("Acc at d=dmax = %v, want 0.45", got)
	}
	// Far away: Acc → 0.
	if got := m.Predict(w, Task{Loc: geo.Point{X: 500, Y: 0}}); got > 1e-9 {
		t.Fatalf("Acc far away = %v, want ≈0", got)
	}
}

func TestSigmoidDistanceMonotoneInDistance(t *testing.T) {
	m := SigmoidDistance{DMax: 30}
	w := Worker{Acc: 0.86}
	prev := math.Inf(1)
	for d := 0.0; d <= 100; d += 0.5 {
		acc := m.Predict(w, Task{Loc: geo.Point{X: d}})
		if acc > prev+1e-15 {
			t.Fatalf("accuracy increased with distance at d=%v", d)
		}
		prev = acc
	}
}

func TestEligibilityRadiusConsistent(t *testing.T) {
	m := SigmoidDistance{DMax: 30}
	for _, minAcc := range []float64{0.5, 0.66, 0.78, 0.9} {
		r := m.EligibilityRadius(minAcc)
		// Any pair beyond r must be ineligible even with p_w = 1.
		w := Worker{Acc: 1.0}
		beyond := m.Predict(w, Task{Loc: geo.Point{X: r + 1e-6}})
		if beyond >= minAcc {
			t.Fatalf("minAcc=%v: Acc just beyond radius = %v, still eligible", minAcc, beyond)
		}
		// Just inside r the best worker must be eligible.
		if r > 0 {
			inside := m.Predict(w, Task{Loc: geo.Point{X: r - 1e-6}})
			if inside < minAcc {
				t.Fatalf("minAcc=%v: Acc just inside radius = %v, ineligible", minAcc, inside)
			}
		}
	}
	if !math.IsInf(m.EligibilityRadius(0), 1) {
		t.Fatal("minAcc=0 must give unbounded radius")
	}
	if m.EligibilityRadius(1) != 0 {
		t.Fatal("minAcc=1 must give zero radius")
	}
}

// Property: the eligibility radius is a sound prune for any worker accuracy,
// not just p_w = 1.
func TestEligibilityRadiusSoundProperty(t *testing.T) {
	m := SigmoidDistance{DMax: 30}
	prop := func(pRaw, dRaw uint16) bool {
		p := 0.66 + float64(pRaw)/65535*0.34 // p ∈ [0.66, 1]
		d := float64(dRaw) / 65535 * 200     // d ∈ [0, 200]
		r := m.EligibilityRadius(0.66)
		acc := m.Predict(Worker{Acc: p}, Task{Loc: geo.Point{X: d}})
		if d > r && acc >= 0.66 {
			return false // pruned pair was actually eligible: unsound
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixAccuracy(t *testing.T) {
	m := MatrixAccuracy{Vals: [][]float64{{0.96, 0.98}, {0.98, 0.96}}}
	w1 := Worker{Index: 1}
	w2 := Worker{Index: 2}
	if got := m.Predict(w1, Task{ID: 0}); got != 0.96 {
		t.Fatalf("Predict(w1, t0) = %v", got)
	}
	if got := m.Predict(w2, Task{ID: 1}); got != 0.96 {
		t.Fatalf("Predict(w2, t1) = %v", got)
	}
	// Out of range → 0.
	if got := m.Predict(Worker{Index: 3}, Task{ID: 0}); got != 0 {
		t.Fatalf("out-of-range worker = %v", got)
	}
	if got := m.Predict(w1, Task{ID: 5}); got != 0 {
		t.Fatalf("out-of-range task = %v", got)
	}
}

func TestConstantAndHistoricalModels(t *testing.T) {
	if got := (ConstantAccuracy{P: 0.8}).Predict(Worker{}, Task{}); got != 0.8 {
		t.Fatalf("ConstantAccuracy = %v", got)
	}
	if got := (HistoricalOnly{}).Predict(Worker{Acc: 0.77}, Task{}); got != 0.77 {
		t.Fatalf("HistoricalOnly = %v", got)
	}
}

func validInstance() *Instance {
	return &Instance{
		Tasks: []Task{
			{ID: 0, Loc: geo.Point{X: 10, Y: 10}},
			{ID: 1, Loc: geo.Point{X: 20, Y: 10}},
		},
		Workers: []Worker{
			{Index: 1, Loc: geo.Point{X: 12, Y: 10}, Acc: 0.9},
			{Index: 2, Loc: geo.Point{X: 18, Y: 10}, Acc: 0.85},
		},
		Epsilon: 0.1,
		K:       2,
		Model:   SigmoidDistance{DMax: 30},
		MinAcc:  0.66,
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Instance)
		want   error
	}{
		{"no tasks", func(in *Instance) { in.Tasks = nil }, ErrNoTasks},
		{"no workers", func(in *Instance) { in.Workers = nil }, ErrNoWorkers},
		{"bad epsilon", func(in *Instance) { in.Epsilon = 0 }, ErrBadEpsilon},
		{"epsilon one", func(in *Instance) { in.Epsilon = 1 }, ErrBadEpsilon},
		{"bad capacity", func(in *Instance) { in.K = 0 }, ErrBadCapacity},
		{"nil model", func(in *Instance) { in.Model = nil }, ErrNoModel},
		{"bad minacc", func(in *Instance) { in.MinAcc = 1 }, ErrBadMinAcc},
		{"task ids", func(in *Instance) { in.Tasks[1].ID = 7 }, ErrTaskIDs},
		{"worker order", func(in *Instance) { in.Workers[1].Index = 5 }, ErrWorkerOrder},
		{"spam worker", func(in *Instance) { in.Workers[0].Acc = 0.5 }, ErrSpamWorker},
		{"acc oob", func(in *Instance) { in.Workers[0].Acc = 1.5 }, ErrAccuracyOOB},
	} {
		in := validInstance()
		tc.mutate(in)
		if err := in.Validate(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestArrangementLatencyAndAccumulation(t *testing.T) {
	a := NewArrangement(2)
	if a.Latency() != 0 {
		t.Fatal("empty arrangement latency must be 0")
	}
	a.Add(3, 0, 0.5)
	a.Add(1, 1, 0.4)
	a.Add(7, 0, 0.2)
	if a.Latency() != 7 {
		t.Fatalf("Latency = %d, want 7", a.Latency())
	}
	if a.WorkersUsed() != 3 {
		t.Fatalf("WorkersUsed = %d, want 3", a.WorkersUsed())
	}
	if math.Abs(a.Accumulated[0]-0.7) > 1e-12 {
		t.Fatalf("Accumulated[0] = %v", a.Accumulated[0])
	}
	if a.TaskLatency(0) != 7 || a.TaskLatency(1) != 1 {
		t.Fatalf("TaskLatency = %d, %d", a.TaskLatency(0), a.TaskLatency(1))
	}
}

func TestArrangementValidate(t *testing.T) {
	in := validInstance()
	in.Epsilon = 0.9 // δ ≈ 0.21: tiny so the small arrangement can complete
	acc0, _ := in.Eligible(in.Workers[0], in.Tasks[0])
	acc1, _ := in.Eligible(in.Workers[1], in.Tasks[1])

	a := NewArrangement(2)
	a.Add(1, 0, AccStar(acc0))
	a.Add(2, 1, AccStar(acc1))
	if err := a.Validate(in, true); err != nil {
		t.Fatalf("valid arrangement rejected: %v", err)
	}

	// Unknown worker.
	bad := NewArrangement(2)
	bad.Add(9, 0, 1)
	if err := bad.Validate(in, false); !errors.Is(err, ErrBadWorkerRef) {
		t.Fatalf("err = %v, want ErrBadWorkerRef", err)
	}

	// Unknown task.
	bad = NewArrangement(2)
	bad.Pairs = []Assignment{{Worker: 1, Task: 9}}
	if err := bad.Validate(in, false); !errors.Is(err, ErrBadTaskRef) {
		t.Fatalf("err = %v, want ErrBadTaskRef", err)
	}

	// Duplicate pair.
	bad = NewArrangement(2)
	bad.Add(1, 0, 1)
	bad.Add(1, 0, 1)
	if err := bad.Validate(in, false); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}

	// Over capacity: K=1 with two assignments to worker 1.
	in1 := validInstance()
	in1.K = 1
	bad = NewArrangement(2)
	bad.Add(1, 0, 1)
	bad.Add(1, 1, 1)
	if err := bad.Validate(in1, false); !errors.Is(err, ErrCapacityUsed) {
		t.Fatalf("err = %v, want ErrCapacityUsed", err)
	}

	// Ineligible: worker too far from the task.
	far := validInstance()
	far.Workers[0].Loc = geo.Point{X: 500, Y: 500}
	bad = NewArrangement(2)
	bad.Add(1, 0, 1)
	if err := bad.Validate(far, false); !errors.Is(err, ErrIneligible) {
		t.Fatalf("err = %v, want ErrIneligible", err)
	}

	// Incomplete.
	inc := NewArrangement(2)
	inc.Add(1, 0, AccStar(acc0))
	if err := inc.Validate(in, true); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
}

func TestCandidateIndexGridVsScan(t *testing.T) {
	// The sigmoid model bounds eligibility; a matrix model does not.
	// Both paths must agree with a brute-force eligibility scan.
	in := validInstance()
	ci := NewCandidateIndex(in)
	if math.IsInf(ci.Radius(), 1) {
		t.Fatal("sigmoid model must yield a bounded radius")
	}
	for _, w := range in.Workers {
		got := ci.Candidates(w, nil)
		var want []Candidate
		for _, task := range in.Tasks {
			if acc, ok := in.Eligible(w, task); ok {
				want = append(want, Candidate{Task: task.ID, Acc: acc, AccStar: AccStar(acc)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("worker %d: got %d candidates, want %d", w.Index, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d: candidate %d = %+v, want %+v", w.Index, i, got[i], want[i])
			}
		}
	}
}

func TestCandidateIndexUnboundedModel(t *testing.T) {
	in := validInstance()
	in.Model = MatrixAccuracy{Vals: [][]float64{{0.9, 0.7}, {0.6, 0.95}}}
	ci := NewCandidateIndex(in)
	if !math.IsInf(ci.Radius(), 1) {
		t.Fatal("matrix model must be unbounded")
	}
	got := ci.Candidates(in.Workers[0], nil)
	if len(got) != 1 || got[0].Task != 0 {
		t.Fatalf("worker 1 candidates = %+v, want only task 0 (0.6 < MinAcc)", got)
	}
	got = ci.Candidates(in.Workers[1], nil)
	if len(got) != 2 {
		t.Fatalf("worker 2 candidates = %+v, want both tasks", got)
	}
}

func TestEligibleWorkerListsSorted(t *testing.T) {
	in := validInstance()
	ci := NewCandidateIndex(in)
	lists := ci.EligibleWorkerLists()
	if len(lists) != len(in.Tasks) {
		t.Fatalf("got %d lists", len(lists))
	}
	for tid, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("task %d worker list not strictly ascending: %v", tid, l)
			}
		}
	}
	// Both workers are near both tasks in validInstance.
	if len(lists[0]) != 2 || len(lists[1]) != 2 {
		t.Fatalf("expected both workers eligible everywhere: %v", lists)
	}
}

func TestCheckFeasible(t *testing.T) {
	in := validInstance()
	in.Epsilon = 0.9 // trivially feasible
	if err := NewCandidateIndex(in).CheckFeasible(); err != nil {
		t.Fatalf("feasible instance flagged: %v", err)
	}
	in.Epsilon = 0.0001 // δ ≈ 18.4 ≫ credit of 2 workers
	if err := NewCandidateIndex(in).CheckFeasible(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMaxPossibleCredit(t *testing.T) {
	in := validInstance()
	ci := NewCandidateIndex(in)
	total := ci.MaxPossibleCredit()
	for tid, tot := range total {
		var want float64
		for _, w := range in.Workers {
			if acc, ok := in.Eligible(w, in.Tasks[tid]); ok {
				want += AccStar(acc)
			}
		}
		if math.Abs(tot-want) > 1e-12 {
			t.Fatalf("task %d: credit %v want %v", tid, tot, want)
		}
	}
}
