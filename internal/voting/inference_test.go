package voting

import (
	"errors"
	"math"
	"testing"

	"ltc/internal/model"
	"ltc/internal/stats"
)

func TestMajorityVoteBasics(t *testing.T) {
	answers := []Answer{
		{Worker: 1, Task: 0, Value: Yes},
		{Worker: 2, Task: 0, Value: Yes},
		{Worker: 3, Task: 0, Value: No},
		{Worker: 1, Task: 1, Value: No},
	}
	labels := MajorityVote(3, answers)
	if labels[0] != Yes || labels[1] != No || labels[2] != 0 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestMajorityVoteTieGoesYes(t *testing.T) {
	answers := []Answer{
		{Worker: 1, Task: 0, Value: Yes},
		{Worker: 2, Task: 0, Value: No},
	}
	if labels := MajorityVote(1, answers); labels[0] != Yes {
		t.Fatalf("tie label = %v, want Yes", labels[0])
	}
}

func TestEMInferenceNoData(t *testing.T) {
	if _, err := EMInference(3, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

// heterogeneousAnswers simulates a panel with very reliable and very
// unreliable workers answering every task.
func heterogeneousAnswers(numTasks int, truth []Label, accs []float64, seed uint64) []Answer {
	rng := stats.NewRand(seed)
	var answers []Answer
	for w, acc := range accs {
		for t := 0; t < numTasks; t++ {
			v := truth[t]
			if rng.Float64() >= acc {
				v = -v
			}
			answers = append(answers, Answer{Worker: w + 1, Task: model.TaskID(t), Value: v})
		}
	}
	return answers
}

func makeTruth(numTasks int, seed uint64) []Label {
	rng := stats.NewRand(seed)
	truth := make([]Label, numTasks)
	for t := range truth {
		if rng.IntN(2) == 0 {
			truth[t] = Yes
		} else {
			truth[t] = No
		}
	}
	return truth
}

// TestEMBeatsMajorityWithHeterogeneousWorkers: with a few experts among
// many coin-flippers, EM should recover labels better than the unweighted
// majority because it discovers who the experts are.
func TestEMBeatsMajorityWithHeterogeneousWorkers(t *testing.T) {
	const numTasks = 120
	truth := makeTruth(numTasks, 5)
	accs := []float64{0.95, 0.95, 0.55, 0.52, 0.50, 0.50, 0.48}
	answers := heterogeneousAnswers(numTasks, truth, accs, 6)

	maj := MajorityVote(numTasks, answers)
	em, err := EMInference(numTasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	grade := func(labels []Label) float64 {
		right := 0
		for t2, l := range labels {
			if l == truth[t2] {
				right++
			}
		}
		return float64(right) / numTasks
	}
	majAcc, emAcc := grade(maj), grade(em.Labels)
	if emAcc < majAcc {
		t.Fatalf("EM (%.3f) worse than majority (%.3f)", emAcc, majAcc)
	}
	if emAcc < 0.9 {
		t.Fatalf("EM accuracy %.3f too low with two 95%% experts", emAcc)
	}
}

// TestEMRecoversWorkerAccuracy: the estimated reliabilities should rank the
// expert above the coin-flipper.
func TestEMRecoversWorkerAccuracy(t *testing.T) {
	const numTasks = 200
	truth := makeTruth(numTasks, 9)
	accs := []float64{0.95, 0.95, 0.90, 0.50, 0.50}
	answers := heterogeneousAnswers(numTasks, truth, accs, 10)
	em, err := EMInference(numTasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	expert := em.WorkerAccuracy[1]
	flipper := em.WorkerAccuracy[4]
	if expert <= flipper {
		t.Fatalf("expert estimate %.3f not above coin-flipper %.3f", expert, flipper)
	}
	if math.Abs(expert-0.95) > 0.10 {
		t.Fatalf("expert estimate %.3f too far from 0.95", expert)
	}
}

func TestEMConverges(t *testing.T) {
	const numTasks = 50
	truth := makeTruth(numTasks, 11)
	answers := heterogeneousAnswers(numTasks, truth, []float64{0.9, 0.8, 0.7}, 12)
	em, err := EMInference(numTasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	if em.Iterations >= emMaxIterations {
		t.Fatalf("EM did not converge (%d iterations)", em.Iterations)
	}
}

func TestEMUnansweredTasksStayZero(t *testing.T) {
	answers := []Answer{{Worker: 1, Task: 0, Value: Yes}}
	em, err := EMInference(3, answers)
	if err != nil {
		t.Fatal(err)
	}
	if em.Labels[1] != 0 || em.Labels[2] != 0 {
		t.Fatalf("labels = %v, unanswered tasks must stay 0", em.Labels)
	}
	if em.Labels[0] != Yes {
		t.Fatalf("labels = %v", em.Labels)
	}
}

// TestEMvsWeightedAggregateOnModelAnswers: on answers simulated from the
// instance's accuracy model, the paper's model-weighted Aggregate and the
// model-free EM should agree on the vast majority of tasks.
func TestEMvsWeightedAggregateOnModelAnswers(t *testing.T) {
	in := denseInstance(60, 300, 0.85, 0.1, 2)
	arr := model.NewArrangement(60)
	w := 1
	for round := 0; round < 5; round++ {
		for t2 := 0; t2 < 60; t2++ {
			arr.Add(w, model.TaskID(t2), 0.5)
			w++
		}
	}
	sim := NewSimulator(in, 33)
	answers := sim.Collect(arr)
	weighted := Aggregate(in, answers)
	em, err := EMInference(len(in.Tasks), answers)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for t2 := range weighted {
		if weighted[t2] == em.Labels[t2] {
			agree++
		}
	}
	if frac := float64(agree) / 60; frac < 0.9 {
		t.Fatalf("weighted vs EM agreement only %.2f", frac)
	}
}
