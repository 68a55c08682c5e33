package core

import (
	"testing"
	"unsafe"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// TestOutcomeSizeof pins Outcome at 16 bytes: Credit first, then the
// 4-byte Task and the bool share the second word. Every arrival fills the
// solver's Outcome buffer, and any other field order pads the struct to 24.
func TestOutcomeSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Outcome{}); got != 16 {
		t.Fatalf("Outcome is %d bytes, want 16: keep Credit first", got)
	}
}

// TestArriveCompletionAllocs pins Engine.Arrive's completion branch, which
// the steady-state pins never take: an arrival that completes a task
// allocates exactly what dropping the task from the candidate index
// allocates, recorded alone. Each of the n tasks sits near the origin with
// K = 1 and ε = 0.9, so δ = 2·ln(1/0.9) ≈ 0.21 lies below one 0.95-accurate
// assignment's credit (Acc* ≈ 0.81): every arrival completes one task.
func TestArriveCompletionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	const warm, runs = 16, 100
	in := &model.Instance{Epsilon: 0.9, K: 1, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < warm+runs+1; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: geo.Point{X: float64(i % 10), Y: float64(i / 10)}})
	}

	ci := model.NewCandidateIndex(in)
	id := model.TaskID(0)
	floor := testing.AllocsPerRun(runs, func() {
		_ = ci.Remove(id)
		id++
	})

	for name, factory := range allOnlineFactories(1) {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(in, model.NewCandidateIndex(in), factory)
			w := model.Worker{Loc: geo.Point{X: 5, Y: 5}, Acc: 0.95}
			arrive := func() {
				w.Index++
				if out := eng.Arrive(w); len(out) != 1 || !out[0].Completed {
					t.Fatalf("worker %d: outcomes %+v, want one completion", w.Index, out)
				}
			}
			for i := 0; i < warm; i++ {
				arrive()
			}
			if avg := testing.AllocsPerRun(runs, arrive); avg != floor {
				t.Fatalf("a completing arrival allocates %v times, the index removal alone %v", avg, floor)
			}
		})
	}
}
