package ltc

import (
	"errors"
	"slices"
	"testing"

	"ltc/internal/model"
)

func tinyInstance(t *testing.T) *Instance {
	t.Helper()
	cfg := DefaultWorkload().Scale(0.01) // 30 tasks, 400 workers
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveEveryAlgorithm(t *testing.T) {
	in := tinyInstance(t)
	latency := map[Algorithm]int{}
	for _, algo := range Algorithms() {
		res, err := Solve(in, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.Completed {
			t.Fatalf("%s: incomplete", algo)
		}
		if err := res.Arrangement.Validate(in, true); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Latency <= 0 || res.Latency > len(in.Workers) {
			t.Fatalf("%s: latency %d", algo, res.Latency)
		}
		latency[algo] = res.Latency
	}
	// Published headline: the proposed algorithms beat the baselines.
	if latency[AAM] > latency[RandomAssign] {
		t.Fatalf("AAM (%d) worse than Random (%d)", latency[AAM], latency[RandomAssign])
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(tinyInstance(t), "Nope"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	in := tinyInstance(t)
	in.K = 0
	if _, err := Solve(in, LAF); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestSharedIndexSurvivesRuns: an index passed through WithIndex is a
// template. Online runs complete tasks out of their own copy, so every run —
// in any order, and two sessions fed side by side — gives what it gives on a
// private index, and the shared index keeps every task live.
func TestSharedIndexSurvivesRuns(t *testing.T) {
	in := tinyInstance(t)
	ci := NewCandidateIndex(in)
	algos := []Algorithm{RandomAssign, LAF, AAM, BaseOff}
	private := map[Algorithm]*Result{}
	for _, algo := range algos {
		res, err := Solve(in, algo, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		private[algo] = res
	}
	reversed := slices.Clone(algos)
	slices.Reverse(reversed)
	for _, order := range [][]Algorithm{algos, reversed} {
		for _, algo := range order {
			res, err := Solve(in, algo, WithIndex(ci), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			if want := private[algo]; res.Latency != want.Latency || !slices.Equal(res.Arrangement.Pairs, want.Arrangement.Pairs) {
				t.Fatalf("%s after %v on the shared index: latency %d, on a private one %d", algo, order, res.Latency, want.Latency)
			}
			if numLive(ci) != len(in.Tasks) {
				t.Fatalf("%s left %d of %d tasks live in the shared index", algo, numLive(ci), len(in.Tasks))
			}
		}
	}

	var shared, alone [2]*Session
	for i, algo := range []Algorithm{AAM, LAF} {
		var err error
		if shared[i], err = NewSession(in, algo, WithIndex(ci)); err != nil {
			t.Fatal(err)
		}
		if alone[i], err = NewSession(in, algo); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range in.Workers {
		for i := range shared {
			got, gotErr := shared[i].Arrive(w)
			want, wantErr := alone[i].Arrive(w)
			if !slices.Equal(got.Assignments, want.Assignments) || got.Done != want.Done || !errors.Is(gotErr, wantErr) {
				t.Fatalf("session %d worker %d: %v (%v) beside another session, %v (%v) alone",
					i, w.Index, got.Assignments, gotErr, want.Assignments, wantErr)
			}
		}
	}
	if !shared[0].Done() || !shared[1].Done() {
		t.Fatal("stream exhausted before both sessions completed")
	}
	if numLive(ci) != len(in.Tasks) {
		t.Fatalf("sessions left %d of %d tasks live in the shared index", numLive(ci), len(in.Tasks))
	}
}

func TestAlgorithmClassification(t *testing.T) {
	for algo, online := range map[Algorithm]bool{
		LAF: true, AAM: true, RandomAssign: true,
		MCFLTC: false, BaseOff: false, Exact: false,
	} {
		if algo.IsOnline() != online {
			t.Fatalf("%s.IsOnline() = %v", algo, algo.IsOnline())
		}
	}
}

func TestDeltaAndAccStarReexports(t *testing.T) {
	if d := Delta(0.1); d < 4.6 || d > 4.61 {
		t.Fatalf("Delta(0.1) = %v", d)
	}
	if AccStar(1.0) != 1.0 {
		t.Fatal("AccStar(1) != 1")
	}
}

func TestSessionStreaming(t *testing.T) {
	in := tinyInstance(t)
	workers := in.Workers
	sess, err := NewSession(in, AAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if sess.Done() {
			break
		}
		if _, err := sess.Arrive(w); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Done() {
		t.Fatal("session did not complete")
	}
	if err := sess.Arrangement().Validate(in, true); err != nil {
		t.Fatal(err)
	}
	// Session must agree with the one-shot Solve.
	res, err := Solve(in, AAM)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Latency() != res.Latency {
		t.Fatalf("session latency %d vs Solve %d", sess.Latency(), res.Latency)
	}
	done, total := sess.Progress()
	if done != total {
		t.Fatalf("progress %d/%d after completion", done, total)
	}
}

func TestSessionOrderEnforced(t *testing.T) {
	in := tinyInstance(t)
	sess, err := NewSession(in, LAF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Arrive(in.Workers[1]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if _, err := sess.Arrive(in.Workers[0]); err != nil {
		t.Fatal(err)
	}
	if sess.WorkersSeen() != 1 {
		t.Fatalf("WorkersSeen = %d", sess.WorkersSeen())
	}
}

func TestSessionDoneRejectsArrivals(t *testing.T) {
	in := tinyInstance(t)
	sess, err := NewSession(in, AAM)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for !sess.Done() && i < len(in.Workers) {
		if _, err := sess.Arrive(in.Workers[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if !sess.Done() {
		t.Fatal("session never completed")
	}
	if _, err := sess.Arrive(Worker{Index: i + 1}); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("err = %v, want ErrSessionDone", err)
	}
}

func TestSessionValidation(t *testing.T) {
	good := tinyInstance(t)
	for _, tc := range []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no tasks", func(in *Instance) { in.Tasks = nil }},
		{"nil model", func(in *Instance) { in.Model = nil }},
		{"bad K", func(in *Instance) { in.K = 0 }},
		{"bad eps", func(in *Instance) { in.Epsilon = 0 }},
	} {
		in := *good
		tc.mutate(&in)
		if _, err := NewSession(&in, AAM); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, err := NewSession(good, MCFLTC); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("offline algorithm in session: err = %v", err)
	}
}

func TestVerifyQualityMeetsEpsilon(t *testing.T) {
	in := tinyInstance(t)
	res, err := Solve(in, AAM)
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyQuality(in, res.Arrangement, 100, 9)
	if rep.TaskDecisions == 0 {
		t.Fatal("nothing graded")
	}
	if rep.ErrorRate > in.Epsilon {
		t.Fatalf("empirical error %.4f > ε %.2f", rep.ErrorRate, in.Epsilon)
	}
}

func TestInferTruthEM(t *testing.T) {
	in := tinyInstance(t)
	res, err := Solve(in, LAF)
	if err != nil {
		t.Fatal(err)
	}
	labels, truth, answered, err := InferTruthEM(in, res.Arrangement, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(in.Tasks) || len(truth) != len(in.Tasks) {
		t.Fatal("length mismatch")
	}
	right, total := 0, 0
	for i, l := range labels {
		if !answered[i] {
			continue
		}
		total++
		if l == truth[i] {
			right++
		}
	}
	if total == 0 {
		t.Fatal("no answered tasks")
	}
	// A completed arrangement gives EM plenty of signal: expect well above
	// the ε = 0.1 error budget.
	if acc := float64(right) / float64(total); acc < 0.9 {
		t.Fatalf("EM accuracy %.3f too low", acc)
	}
}

func TestCheckFeasibleReexport(t *testing.T) {
	in := tinyInstance(t)
	if err := CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	in.Epsilon = 1e-9 // δ ≈ 41.4: hopeless
	if err := CheckFeasible(in); err == nil {
		t.Fatal("infeasible instance passed")
	}
}

func TestCityPresetsReexported(t *testing.T) {
	if NewYork().NumTasks != 3717 || Tokyo().NumTasks != 9317 {
		t.Fatal("city presets wrong")
	}
	tr, err := GenerateCity(NewYork().Scale(0.005))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Instance.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingConstructorsValidateTasks: NewPlatform and NewSession reject
// the task-ID and MinAcc defects Solve rejects, with the same typed errors,
// instead of accepting them or panicking on a sparse task ID.
func TestStreamingConstructorsValidateTasks(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   error
	}{
		{"sparse task IDs", func(in *Instance) { in.Tasks[1].ID = 7 }, model.ErrTaskIDs},
		{"MinAcc above 1", func(in *Instance) { in.MinAcc = 1.5 }, model.ErrBadMinAcc},
		{"negative MinAcc", func(in *Instance) { in.MinAcc = -1 }, model.ErrBadMinAcc},
	}
	constructors := []struct {
		name string
		make func(*Instance) error
	}{
		{"NewPlatform", func(in *Instance) error {
			p, err := NewPlatform(in, AAM, WithShards(1))
			if err == nil {
				return p.Close()
			}
			return err
		}},
		{"NewSession", func(in *Instance) error {
			_, err := NewSession(in, AAM)
			return err
		}},
	}
	for _, tc := range cases {
		for _, c := range constructors {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				in := tinyInstance(t)
				in.Tasks = in.Tasks[:2]
				tc.mutate(in)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := c.make(in); !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// numLive counts the index's live tasks. Under an engine that is the number
// of open tasks: a task is removed when it completes, is retired or migrates
// away.
func numLive(ci *CandidateIndex) int {
	n := 0
	for id := 0; id < ci.NumTasks(); id++ {
		if ci.Live(TaskID(id)) {
			n++
		}
	}
	return n
}
