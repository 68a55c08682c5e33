package core

import (
	"math"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// migrationShard is a minimal stand-in for one dispatch shard: its own
// instance (dense local ID space), candidate index and engine, the way the
// sharded dispatcher carves sub-instances out of a source instance.
type migrationShard struct {
	in  *model.Instance
	ci  *model.CandidateIndex
	eng *Engine
}

func newMigrationShard(base *model.Instance, tasks []model.Task, factory OnlineFactory) *migrationShard {
	in := &model.Instance{
		Epsilon: base.Epsilon,
		K:       base.K,
		Model:   base.Model,
		MinAcc:  base.MinAcc,
	}
	for i, t := range tasks {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: t.Loc})
	}
	ci := model.NewCandidateIndex(in)
	return &migrationShard{in: in, ci: ci, eng: NewEngine(in, ci, factory)}
}

// appendTask extends the shard's instance with a task at the given location
// and returns the local view (dense local ID), mirroring
// model.SubInstance.AppendTask.
func (s *migrationShard) appendTask(loc geo.Point) model.Task {
	t := model.Task{ID: model.TaskID(len(s.in.Tasks)), Loc: loc}
	s.in.Tasks = append(s.in.Tasks, t)
	return t
}

// TestEngineEvictAdoptRoundTrip moves a partially credited open task from one
// engine to another for each online solver: the adopted task keeps its
// credit, latency bookkeeping and completion race; the source stops counting
// it; the merged Progress across both engines is conserved.
func TestEngineEvictAdoptRoundTrip(t *testing.T) {
	for _, factory := range []struct {
		name string
		f    OnlineFactory
	}{
		{"LAF", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) }},
		{"AAM", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) }},
		{"Random", func(in *model.Instance, ci *model.CandidateIndex) Online { return NewRandom(in, ci, 5) }},
	} {
		t.Run(factory.name, func(t *testing.T) {
			base := lifecycleInstance(4, 600, 11)
			src := newMigrationShard(base, base.Tasks[:2], factory.f)
			dst := newMigrationShard(base, base.Tasks[2:4], factory.f)

			// Partially credit the source's tasks.
			const warm = 6
			for i := 0; i < warm; i++ {
				src.eng.Arrive(base.Workers[i])
			}
			const victim = model.TaskID(1)
			credit := src.eng.Arrangement().Accumulated[victim]
			last := src.eng.TaskLastUsed(victim)

			if src.eng.TaskCompleted(victim) {
				t.Fatal("warm-up completed the victim: nothing open to move")
			}
			snap, ok, err := src.eng.EvictTask(victim)
			if err != nil || !ok {
				t.Fatalf("evict of an open task: ok=%t err=%v", ok, err)
			}
			if snap.Credit != credit || snap.LastUsed != last {
				t.Fatalf("snapshot %+v, want credit %v last %v", snap, credit, last)
			}
			if src.ci.Live(victim) {
				t.Fatal("evicted task still live in the source index")
			}
			if _, ok, err := src.eng.EvictTask(victim); ok || err != nil {
				t.Fatalf("evict of the ghost: ok=%t err=%v, want a refusal", ok, err)
			}
			if c, total := src.eng.Progress(); total != 1 || c != progressCompleted(src.eng) {
				t.Fatalf("source progress %d/%d after evict", c, total)
			}

			local := dst.appendTask(base.Tasks[victim].Loc)
			if err := dst.eng.AdoptTask(local, snap); err != nil {
				t.Fatal(err)
			}
			if got := dst.eng.Arrangement().Accumulated[local.ID]; got != snap.Credit {
				t.Fatalf("adopted credit %v, want %v", got, snap.Credit)
			}
			if dst.eng.TaskLastUsed(local.ID) != snap.LastUsed {
				t.Fatalf("adopted lastUsed %d, want %d", dst.eng.TaskLastUsed(local.ID), snap.LastUsed)
			}
			if dst.eng.TaskCompleted(local.ID) || dst.eng.TaskRetired(local.ID) {
				t.Fatal("adopted task is not open at the target")
			}
			if !dst.ci.Live(local.ID) {
				t.Fatal("adopted live task not live in the target index")
			}

			// The union of both engines still completes the whole task set.
			for i := warm; i < len(base.Workers); i++ {
				if src.eng.Done() && dst.eng.Done() {
					break
				}
				w := base.Workers[i]
				src.eng.Arrive(w)
				dst.eng.Arrive(w)
			}
			if !src.eng.Done() || !dst.eng.Done() {
				t.Fatal("stream exhausted before both engines completed")
			}
			sc, st := src.eng.Progress()
			dc, dt := dst.eng.Progress()
			if st+dt != 4 || sc+dc != 4 {
				t.Fatalf("merged progress %d/%d + %d/%d, want 4/4 total", sc, st, dc, dt)
			}
			if !dst.eng.TaskCompleted(local.ID) {
				t.Fatal("migrated task never completed at the target")
			}
		})
	}
}

func progressCompleted(e *Engine) int {
	// One source task remains (ID 0); it counts as completed iff it is.
	if e.TaskCompleted(0) {
		return 1
	}
	return 0
}

// TestEngineEvictSettledTaskRefused: a completed task, a retired task and the
// ghost of an evicted one are all settled — nothing will be assigned to them
// again — so EvictTask refuses them and leaves every account where it was.
// Retiring the completed one afterwards is still the harmless no-op.
func TestEngineEvictSettledTaskRefused(t *testing.T) {
	base := lifecycleInstance(4, 600, 11)
	f := func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) }
	src := newMigrationShard(base, base.Tasks, f)

	const completed, retired, ghost = model.TaskID(1), model.TaskID(0), model.TaskID(2)
	if _, err := src.eng.RetireTask(retired); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := src.eng.EvictTask(ghost); !ok || err != nil {
		t.Fatalf("evict of an open task: ok=%t err=%v", ok, err)
	}
	for _, w := range base.Workers {
		if src.eng.TaskCompleted(completed) {
			break
		}
		src.eng.Arrive(w)
	}
	if !src.eng.TaskCompleted(completed) {
		t.Fatal("stream exhausted before the victim completed")
	}

	c, total := src.eng.Progress()
	r, live := src.eng.Retired(), numLive(src.ci)
	if total != 3 || r != 1 {
		t.Fatalf("progress total %d retired %d before the refusals, want 3 and 1", total, r)
	}
	for _, id := range []model.TaskID{completed, retired, ghost} {
		if snap, ok, err := src.eng.EvictTask(id); ok || err != nil || snap != (TaskSnapshot{}) {
			t.Fatalf("evict of settled task %d: snap=%+v ok=%t err=%v, want a refusal", id, snap, ok, err)
		}
	}
	if c2, total2 := src.eng.Progress(); c2 != c || total2 != total || src.eng.Retired() != r || numLive(src.ci) != live {
		t.Fatalf("refused evictions moved the accounts: progress %d/%d retired %d live %d, want %d/%d, %d and %d",
			c2, total2, src.eng.Retired(), numLive(src.ci), c, total, r, live)
	}
	if wasOpen, err := src.eng.RetireTask(completed); err != nil || wasOpen {
		t.Fatalf("retire of a completed task: wasOpen=%t err=%v", wasOpen, err)
	}
}

// TestEngineMigrationErrors covers the evict/adopt error paths.
func TestEngineMigrationErrors(t *testing.T) {
	base := lifecycleInstance(3, 10, 17)
	f := func(in *model.Instance, ci *model.CandidateIndex) Online { return NewLAF(in, ci) }
	src := newMigrationShard(base, base.Tasks, f)

	if _, _, err := src.eng.EvictTask(-1); err == nil {
		t.Fatal("negative evict accepted")
	}
	if _, _, err := src.eng.EvictTask(99); err == nil {
		t.Fatal("out-of-range evict accepted")
	}

	snap, ok, err := src.eng.EvictTask(0)
	if err != nil || !ok {
		t.Fatalf("evict of an open task: ok=%t err=%v", ok, err)
	}
	dst := newMigrationShard(base, base.Tasks[:1], f)
	// Non-dense adopted ID.
	if err := dst.eng.AdoptTask(model.Task{ID: 7, Loc: base.Tasks[0].Loc}, snap); err == nil {
		t.Fatal("non-dense adopt accepted")
	}
	// Adopt without appending to the instance table first.
	if err := dst.eng.AdoptTask(model.Task{ID: 1, Loc: base.Tasks[0].Loc}, snap); err == nil {
		t.Fatal("adopt without instance append accepted")
	}
	// Desync the index deliberately: adopt must surface the dense-ID error.
	extra := dst.appendTask(geo.Point{X: 2, Y: 2})
	if err := dst.ci.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := dst.eng.AdoptTask(extra, snap); err == nil {
		t.Fatal("adopt over a desynced index accepted")
	}
}

// TestTaskStateAdopt exercises the adopt bookkeeping directly: credit at or
// above δ lands settled (zeroNeed set), credit inside the epsilon band reads
// done but keeps its residual need, and non-dense adoption panics.
func TestTaskStateAdopt(t *testing.T) {
	ts := newTaskState(0, 2.0)
	ts.adopt(0, 0.5) // open, incomplete
	ts.adopt(1, 2.5) // completed
	ts.adopt(2, 1.0)
	ts.close(2)            // retired while incomplete
	ts.adopt(3, 2.0-1e-12) // inside the epsilon band: done, residual need
	if ts.remaining != 1 {
		t.Fatalf("remaining %d, want 1", ts.remaining)
	}
	if ts.done(0) || !ts.done(1) || !ts.done(2) || !ts.done(3) {
		t.Fatalf("done flags: %t %t %t %t", ts.done(0), ts.done(1), ts.done(2), ts.done(3))
	}
	if bitGet(ts.zeroNeed, 1) != true || bitGet(ts.zeroNeed, 2) != true {
		t.Fatal("settled adoptions must set zeroNeed")
	}
	if bitGet(ts.zeroNeed, 3) {
		t.Fatal("epsilon-band adoption must keep its residual need")
	}
	sum, maxNeed := ts.totalNeed()
	if want := (2.0 - 0.5) + 1e-12; math.Abs(sum-want) > 1e-9 || maxNeed != 1.5 {
		t.Fatalf("totalNeed %v/%v", sum, maxNeed)
	}
	// The adopted state keeps racing normally.
	if !ts.add(9, 0, 2.0) {
		t.Fatal("completing credit on an adopted task not reported")
	}
	if ts.remaining != 0 || !ts.allDone() {
		t.Fatalf("remaining %d after completion", ts.remaining)
	}
	// Adopted credit seeds S[t] without inventing pairs: the source's pairs
	// stay in the source's arrangement.
	if len(ts.arr.Pairs) != 1 || ts.arr.Accumulated[0] != 2.5 || ts.arr.Accumulated[2] != 1.0 || ts.arr.Latency() != 9 {
		t.Fatalf("arrangement after adopt+add: %+v", ts.arr)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-dense adopt did not panic")
			}
		}()
		ts.adopt(9, 0)
	}()
}
