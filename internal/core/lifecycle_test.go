package core

import (
	"math/rand/v2"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

func lifecycleInstance(nTasks, nWorkers int, seed uint64) *model.Instance {
	rng := rand.New(rand.NewPCG(seed, seed^0x77))
	in := &model.Instance{
		Epsilon: 0.1,
		K:       3,
		Model:   model.SigmoidDistance{DMax: 30},
		MinAcc:  0.5,
	}
	for t := 0; t < nTasks; t++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID:  model.TaskID(t),
			Loc: geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60},
		})
	}
	for w := 1; w <= nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			Index: w,
			Loc:   geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60},
			Acc:   0.8 + rng.Float64()*0.2,
		})
	}
	return in
}

// TestEnginePostTaskMidStream: a task posted after some arrivals starts its
// δ accumulation at zero from that point, gets assigned by the solver, and
// its post index anchors the relative latency numbers.
func TestEnginePostTaskMidStream(t *testing.T) {
	for _, factory := range []struct {
		name string
		f    OnlineFactory
	}{
		{"LAF", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) }},
		{"AAM", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) }},
		{"Random", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewRandom(in, ci, 5) }},
	} {
		t.Run(factory.name, func(t *testing.T) {
			in := lifecycleInstance(4, 600, 11)
			ci := model.NewCandidateIndex(in)
			eng := NewEngine(in, ci, factory.f)

			const postAt = 10
			for i := 0; i < postAt; i++ {
				eng.Arrive(in.Workers[i])
			}
			// Post a task in the middle of the worker cloud, mid-stream.
			nt := model.Task{ID: model.TaskID(len(in.Tasks)), Loc: geo.Point{X: 30, Y: 30}}
			in.Tasks = append(in.Tasks, nt)
			if err := eng.PostTask(nt, postAt); err != nil {
				t.Fatal(err)
			}
			if !ci.Live(nt.ID) {
				t.Fatal("engine did not insert the posted task into the index")
			}
			if eng.TaskPostIndex(nt.ID) != postAt {
				t.Fatalf("post index %d, want %d", eng.TaskPostIndex(nt.ID), postAt)
			}
			if eng.TaskCompleted(nt.ID) {
				t.Fatal("freshly posted task reported complete")
			}
			for i := postAt; i < len(in.Workers) && !eng.Done(); i++ {
				eng.Arrive(in.Workers[i])
			}
			if !eng.Done() {
				t.Fatal("stream exhausted before completion")
			}
			if !eng.TaskCompleted(nt.ID) {
				t.Fatal("posted task never completed")
			}
			last := eng.TaskLastUsed(nt.ID)
			if last <= postAt {
				t.Fatalf("posted task last used at %d, must be after post index %d", last, postAt)
			}
			// The relative latency of the late task is measured from its post.
			if rel := last - eng.TaskPostIndex(nt.ID); rel <= 0 || rel >= last {
				t.Fatalf("relative latency %d out of range (last %d, post %d)", rel, last, postAt)
			}
			// The engine's own figure is the max of that difference over
			// every task with an assignment.
			want := 0
			for id := range in.Tasks {
				id := model.TaskID(id)
				want = max(want, eng.TaskLastUsed(id)-eng.TaskPostIndex(id))
			}
			if got := eng.RelativeLatency(); got != want || got > eng.Arrangement().Latency() {
				t.Fatalf("RelativeLatency %d, want %d (latency %d)", got, want, eng.Arrangement().Latency())
			}
		})
	}
}

// TestEngineRetireUnblocksDone: retiring the only incomplete task completes
// the engine; retiring a completed task is a no-op with wasOpen = false.
func TestEngineRetireUnblocksDone(t *testing.T) {
	in := lifecycleInstance(3, 400, 13)
	ci := model.NewCandidateIndex(in)
	eng := NewEngine(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewLAF(in, ci)
	})
	for i := 0; i < len(in.Workers) && !eng.Done(); i++ {
		eng.Arrive(in.Workers[i])
	}
	if !eng.Done() {
		t.Skip("workload did not complete; pick a denser fixture")
	}
	// Retiring a completed task: no-op.
	wasOpen, err := eng.RetireTask(0)
	if err != nil {
		t.Fatal(err)
	}
	if wasOpen {
		t.Fatal("completed task reported open at retire")
	}
	if !eng.TaskRetired(0) || eng.Retired() != 1 {
		t.Fatalf("retire bookkeeping: retired(0)=%t count=%d", eng.TaskRetired(0), eng.Retired())
	}

	// A task posted into an empty corner (no eligible workers) blocks Done
	// until retired.
	far := model.Task{ID: model.TaskID(len(in.Tasks)), Loc: geo.Point{X: 5000, Y: 5000}}
	in.Tasks = append(in.Tasks, far)
	if err := eng.PostTask(far, 400); err != nil {
		t.Fatal(err)
	}
	if eng.Done() {
		t.Fatal("engine done with an open posted task")
	}
	wasOpen, err = eng.RetireTask(far.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Live(far.ID) {
		t.Fatal("retired task still live in the index")
	}
	if !wasOpen {
		t.Fatal("incomplete task not reported open at retire")
	}
	if !eng.Done() {
		t.Fatal("retire of the only open task must complete the engine")
	}
	// Double retire: still fine, still closed.
	if wasOpen, err = eng.RetireTask(far.ID); err != nil || wasOpen {
		t.Fatalf("double retire: wasOpen=%t err=%v", wasOpen, err)
	}
}

// TestEngineLifecycleErrors covers the dense-ID and bounds error paths.
func TestEngineLifecycleErrors(t *testing.T) {
	in := lifecycleInstance(3, 10, 17)
	ci := model.NewCandidateIndex(in)
	eng := NewEngine(in, ci, func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewLAF(in, ci)
	})
	// Post with a gap in the ID space.
	if err := eng.PostTask(model.Task{ID: 7, Loc: geo.Point{X: 1, Y: 1}}, 0); err == nil {
		t.Fatal("non-dense post accepted")
	}
	// Post without appending to the instance task table first.
	if err := eng.PostTask(model.Task{ID: 3, Loc: geo.Point{X: 1, Y: 1}}, 0); err == nil {
		t.Fatal("post without instance append accepted")
	}
	if _, err := eng.RetireTask(99); err == nil {
		t.Fatal("retire of unknown task accepted")
	}
	if _, err := eng.RetireTask(-1); err == nil {
		t.Fatal("retire of negative task accepted")
	}
	// Desync the index deliberately: the engine's insert must surface the
	// index's dense-ID error.
	extra := model.Task{ID: 3, Loc: geo.Point{X: 2, Y: 2}}
	if err := ci.Insert(extra); err != nil {
		t.Fatal(err)
	}
	in.Tasks = append(in.Tasks, extra)
	if err := eng.PostTask(extra, 0); err == nil {
		t.Fatal("post over a desynced index accepted")
	}
}

// TestTaskStateLifecycle exercises the adopt/close bookkeeping directly:
// remaining counts live incomplete tasks only, need/totalNeed ignore closed
// tasks, and the closed mask survives credit arriving after retirement.
func TestTaskStateLifecycle(t *testing.T) {
	ts := newTaskState(2, 2.0)
	if ts.remaining != 2 {
		t.Fatalf("remaining %d", ts.remaining)
	}
	ts.adopt(2, 0) // a post: no credit, open
	if ts.remaining != 3 || len(ts.arr.Accumulated) != 3 {
		t.Fatalf("after post: remaining %d, len %d", ts.remaining, len(ts.arr.Accumulated))
	}
	// Posting out of dense order must panic (programming error).
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-dense post did not panic")
			}
		}()
		ts.adopt(7, 0)
	}()
	ts.add(1, 0, 2.5) // completes task 0
	if ts.remaining != 2 || !ts.done(0) {
		t.Fatalf("after complete: remaining %d", ts.remaining)
	}
	if open := ts.close(0); open {
		t.Fatal("closing a completed task reported open")
	}
	if open := ts.close(1); !open {
		t.Fatal("closing an incomplete task reported not-open")
	}
	if ts.done(1) != true {
		t.Fatal("closed task must read done")
	}
	if n := ts.need(1); n != 0 {
		t.Fatalf("closed task need %v", n)
	}
	sum, max := ts.totalNeed()
	if sum != 2.0 || max != 2.0 { // only task 2 still needs credit
		t.Fatalf("totalNeed %v/%v", sum, max)
	}
	if open := ts.close(1); open {
		t.Fatal("double close reported open")
	}
	if ts.remaining != 1 {
		t.Fatalf("remaining %d, want 1", ts.remaining)
	}
	ts.close(2)
	if !ts.allDone() {
		t.Fatal("allDone after closing everything")
	}
}
