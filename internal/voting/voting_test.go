package voting

import (
	"math"
	"testing"

	"ltc/internal/core"
	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/stats"
)

// denseInstance builds a small instance where every worker is eligible for
// every task, with the given per-worker accuracy.
func denseInstance(nTasks, nWorkers int, acc, eps float64, k int) *model.Instance {
	in := &model.Instance{
		Epsilon: eps,
		K:       k,
		Model:   model.SigmoidDistance{DMax: 30},
		MinAcc:  0.66,
	}
	for t := 0; t < nTasks; t++ {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(t), Loc: geo.Point{X: float64(t), Y: 0}})
	}
	for w := 1; w <= nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			Index: w,
			Loc:   geo.Point{X: float64(w % nTasks), Y: 1},
			Acc:   acc,
		})
	}
	return in
}

func TestTruthDeterministic(t *testing.T) {
	in := denseInstance(5, 10, 0.9, 0.1, 2)
	a, b := NewSimulator(in, 42), NewSimulator(in, 42)
	for ti := range in.Tasks {
		if a.Truth(model.TaskID(ti)) != b.Truth(model.TaskID(ti)) {
			t.Fatal("same seed must give same truth")
		}
	}
}

func TestTruthLabelsAreBinary(t *testing.T) {
	in := denseInstance(64, 10, 0.9, 0.1, 2)
	sim := NewSimulator(in, 7)
	yes, no := 0, 0
	for ti := range in.Tasks {
		switch sim.Truth(model.TaskID(ti)) {
		case Yes:
			yes++
		case No:
			no++
		default:
			t.Fatalf("task %d has non-binary truth", ti)
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate truth distribution: %d yes / %d no", yes, no)
	}
}

func TestCollectAnswerPerAssignment(t *testing.T) {
	in := denseInstance(2, 4, 0.9, 0.3, 1)
	arr := model.NewArrangement(2)
	arr.Add(1, 0, 0.5)
	arr.Add(2, 1, 0.5)
	arr.Add(3, 0, 0.5)
	sim := NewSimulator(in, 1)
	answers := sim.Collect(arr)
	if len(answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(answers))
	}
	for _, a := range answers {
		if a.Value != Yes && a.Value != No {
			t.Fatalf("non-binary answer %+v", a)
		}
	}
}

func TestPerfectWorkersAlwaysRight(t *testing.T) {
	in := denseInstance(3, 6, 1.0, 0.1, 2)
	// Workers sit ~1 unit from tasks, dmax=30 → Acc ≈ 1.
	arr := model.NewArrangement(3)
	for w := 1; w <= 6; w++ {
		arr.Add(w, model.TaskID((w-1)%3), 1)
	}
	sim := NewSimulator(in, 3)
	answers := sim.Collect(arr)
	decided := Aggregate(in, answers)
	for ti, label := range decided {
		if label != sim.Truth(model.TaskID(ti)) {
			t.Fatalf("perfect workers decided task %d wrong", ti)
		}
	}
}

func TestAggregateUnassignedTaskIsZero(t *testing.T) {
	in := denseInstance(2, 2, 0.9, 0.3, 1)
	labels := Aggregate(in, nil)
	if labels[0] != 0 || labels[1] != 0 {
		t.Fatalf("labels = %v, want zeros", labels)
	}
	if _, ok := decide(in, 0, nil); ok {
		t.Fatal("decide on an unanswered task must report no decision")
	}
}

// TestDecideMatchesAggregate holds Aggregate to decide, a per-task
// recomputation of the weighted vote.
func TestDecideMatchesAggregate(t *testing.T) {
	in := denseInstance(3, 9, 0.88, 0.2, 2)
	arr := model.NewArrangement(3)
	for w := 1; w <= 9; w++ {
		arr.Add(w, model.TaskID((w-1)%3), 0.5)
	}
	sim := NewSimulator(in, 11)
	answers := sim.Collect(arr)
	agg := Aggregate(in, answers)
	for ti := range in.Tasks {
		got, ok := decide(in, model.TaskID(ti), answers)
		if !ok {
			t.Fatalf("task %d: no answers", ti)
		}
		if got != agg[ti] {
			t.Fatalf("task %d: decide %d vs Aggregate %d", ti, got, agg[ti])
		}
	}
}

// TestLowAccuracyWeightInverts: a worker whose predicted accuracy is below
// 1/2 gets a negative weight, so their (usually wrong) answer still pushes
// the vote toward the truth — the Hoeffding-weighting subtlety.
func TestLowAccuracyWeightInverts(t *testing.T) {
	in := &model.Instance{
		Epsilon: 0.3,
		K:       1,
		Model:   model.MatrixAccuracy{Vals: [][]float64{{0.1}}}, // Acc = 0.1 < 0.5
		MinAcc:  0,                                              // allow the pathological pair for this test
		Tasks:   []model.Task{{ID: 0}},
		Workers: []model.Worker{{Index: 1, Acc: 0.9}},
	}
	// The worker answers wrong 90% of the time; with weight 2·0.1−1 = −0.8
	// the aggregated label should equal the truth ~90% of the time.
	right := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		sim := NewSimulator(in, uint64(i))
		arr := model.NewArrangement(1)
		arr.Add(1, 0, model.AccStar(0.1))
		answers := sim.Collect(arr)
		if Aggregate(in, answers)[0] == sim.Truth(0) {
			right++
		}
	}
	rate := float64(right) / trials
	if rate < 0.85 {
		t.Fatalf("inverted weighting recovered truth only %.1f%% of the time", rate*100)
	}
}

// TestHoeffdingBoundHolds is the end-to-end quality property: run a real
// LTC algorithm, collect simulated answers, and verify the empirical error
// stays below the tolerable error rate ε. Hoeffding is loose, so the
// empirical rate is typically far below ε.
func TestHoeffdingBoundHolds(t *testing.T) {
	in := denseInstance(10, 400, 0.9, 0.1, 3)
	ci := model.NewCandidateIndex(in)
	res, err := core.RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) core.Online {
		return core.NewAAM(in, ci)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := EmpiricalError(in, res.Arrangement, 300, 99)
	if rep.TaskDecisions != 300*len(in.Tasks) {
		t.Fatalf("graded %d decisions, want %d", rep.TaskDecisions, 300*len(in.Tasks))
	}
	if rep.ErrorRate > in.Epsilon {
		t.Fatalf("empirical error %.4f exceeds ε=%.2f", rep.ErrorRate, in.Epsilon)
	}
}

// TestEmpiricalErrorScalesWithAnswers: more accumulated credit → lower
// empirical error. Compare 1-answer tasks against completed tasks.
func TestEmpiricalErrorScalesWithAnswers(t *testing.T) {
	in := denseInstance(8, 200, 0.82, 0.1, 2)
	single := model.NewArrangement(8)
	full := model.NewArrangement(8)
	// One answer per task vs eight answers per task.
	for ti := 0; ti < 8; ti++ {
		single.Add(ti+1, model.TaskID(ti), 0.4)
	}
	w := 1
	for round := 0; round < 8; round++ {
		for ti := 0; ti < 8; ti++ {
			full.Add(w, model.TaskID(ti), 0.4)
			w++
		}
	}
	errSingle := EmpiricalError(in, single, 400, 5).ErrorRate
	errFull := EmpiricalError(in, full, 400, 5).ErrorRate
	if errFull >= errSingle {
		t.Fatalf("more answers did not reduce error: single %.4f vs full %.4f", errSingle, errFull)
	}
}

// TestEmpiricalErrorEmptyArrangement: nothing assigned → nothing graded.
func TestEmpiricalErrorEmptyArrangement(t *testing.T) {
	in := denseInstance(3, 3, 0.9, 0.1, 1)
	rep := EmpiricalError(in, model.NewArrangement(3), 10, 1)
	if rep.TaskDecisions != 0 || rep.ErrorRate != 0 {
		t.Fatalf("report = %+v, want zero decisions", rep)
	}
}

// TestAnswerAccuracyMatchesModel: the sampled per-answer correctness tracks
// Acc(w,t) closely.
func TestAnswerAccuracyMatchesModel(t *testing.T) {
	in := denseInstance(1, 1, 0.8, 0.3, 1)
	w := in.Workers[0]
	task := in.Tasks[0]
	acc := in.Model.Predict(w, task)
	arr := model.NewArrangement(1)
	arr.Add(1, 0, model.AccStar(acc))
	right := 0
	const trials = 5000
	rng := stats.NewRand(17)
	for i := 0; i < trials; i++ {
		sim := NewSimulator(in, rng.Uint64())
		if sim.Collect(arr)[0].Value == sim.Truth(0) {
			right++
		}
	}
	got := float64(right) / trials
	if math.Abs(got-acc) > 0.03 {
		t.Fatalf("empirical answer accuracy %.3f, model says %.3f", got, acc)
	}
}

// decide recomputes the weighted majority vote of task t alone; ok is false
// when no worker answered it.
func decide(in *model.Instance, t model.TaskID, answers []Answer) (l Label, ok bool) {
	var score float64
	for _, a := range answers {
		if a.Task != t {
			continue
		}
		score += (2*in.Model.Predict(in.Workers[a.Worker-1], in.Tasks[t]) - 1) * float64(a.Value)
		ok = true
	}
	if score >= 0 {
		return Yes, ok
	}
	return No, ok
}
