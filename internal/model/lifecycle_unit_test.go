package model

import (
	"errors"
	"testing"

	"ltc/internal/geo"
)

// TestCandidateIndexInsertRemoveErrors covers the lifecycle error paths and
// the Live accessor.
func TestCandidateIndexInsertRemoveErrors(t *testing.T) {
	in := &Instance{
		Tasks:   []Task{{ID: 0, Loc: geo.Point{X: 1, Y: 1}}, {ID: 1, Loc: geo.Point{X: 5, Y: 5}}},
		Epsilon: 0.1, K: 2,
		Model:  SigmoidDistance{DMax: 30},
		MinAcc: 0.5,
	}
	ci := NewCandidateIndex(in)
	if ci.NumTasks() != 2 || numLive(ci) != 2 {
		t.Fatalf("NumTasks %d NumLive %d", ci.NumTasks(), numLive(ci))
	}
	if err := ci.Insert(Task{ID: 5, Loc: geo.Point{X: 2, Y: 2}}); !errors.Is(err, ErrTaskIDNotDense) {
		t.Fatalf("gapped insert: %v", err)
	}
	if err := ci.Remove(7); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown remove: %v", err)
	}
	if err := ci.Remove(-1); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("negative remove: %v", err)
	}
	if err := ci.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := ci.Remove(1); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("double remove: %v", err)
	}
	if ci.Live(1) || !ci.Live(0) || ci.Live(-1) || ci.Live(9) {
		t.Fatal("Live mask wrong")
	}
	if numLive(ci) != 1 || ci.NumTasks() != 2 {
		t.Fatalf("after remove: NumLive %d NumTasks %d", numLive(ci), ci.NumTasks())
	}
}

// TestCandidateIndexZeroRadius: an accuracy model whose eligibility radius
// collapses to zero still builds a usable (1-unit-cell) grid.
func TestCandidateIndexZeroRadius(t *testing.T) {
	in := &Instance{
		Tasks:   []Task{{ID: 0, Loc: geo.Point{X: 3, Y: 3}}},
		Epsilon: 0.1, K: 1,
		// DMax 1 with a tight threshold: radius = 1 + ln(1/0.9 − 1) < 0 → 0.
		Model:  SigmoidDistance{DMax: 1},
		MinAcc: 0.9,
	}
	if r := (SigmoidDistance{DMax: 1}).EligibilityRadius(0.9); r != 0 {
		t.Fatalf("radius %v, want 0", r)
	}
	ci := NewCandidateIndex(in)
	if ci.Radius() != 0 {
		t.Fatalf("index radius %v", ci.Radius())
	}
	// A worker exactly on the task is the only possible candidate — and even
	// it fails the accuracy threshold here (p/2 < 0.9): no candidates, no
	// panic from a degenerate zero-size cell.
	if got := ci.Candidates(Worker{Index: 1, Loc: in.Tasks[0].Loc, Acc: 1}, nil); len(got) != 0 {
		t.Fatalf("candidates %v", got)
	}
}

// TestCandidateIndexFarOutsidePosts: a task posted far outside the initial
// rect — where float→int conversion of the cell coordinate is undefined — is
// filed under a border cell by the same clamp the query window uses, so a
// worker standing on it finds it, and Remove finds it again.
func TestCandidateIndexFarOutsidePosts(t *testing.T) {
	in := &Instance{
		Tasks:   []Task{{ID: 0, Loc: geo.Point{X: 10, Y: 10}}, {ID: 1, Loc: geo.Point{X: 190, Y: 130}}},
		Epsilon: 0.1, K: 2,
		Model:  SigmoidDistance{DMax: 30},
		MinAcc: 0.5,
	}
	ci := NewCandidateIndex(in)
	tasks, live := append([]Task(nil), in.Tasks...), []bool{true, true}
	var probes []Worker
	for _, loc := range []geo.Point{{X: 1e300, Y: 1e300}, {X: -1e300, Y: 70}, {X: 100, Y: -1e300}, {X: 1e300, Y: -1e300}, {X: 250, Y: 160}} {
		nt := Task{ID: TaskID(len(tasks)), Loc: loc}
		if err := ci.Insert(nt); err != nil {
			t.Fatal(err)
		}
		tasks, live = append(tasks, nt), append(live, true)
		probes = append(probes, Worker{Index: len(probes) + 1, Loc: loc, Acc: 0.9})
		if got := ci.Candidates(probes[len(probes)-1], nil); len(got) != 1 || got[0].Task != nt.ID {
			t.Fatalf("worker on task %d at %v: candidates %v", nt.ID, loc, got)
		}
	}
	checkAgainstBrute(t, ci, in, tasks, live, probes)
	for id := 2; id < len(tasks); id++ {
		if err := ci.Remove(TaskID(id)); err != nil {
			t.Fatal(err)
		}
		live[id] = false
	}
	checkAgainstBrute(t, ci, in, tasks, live, probes)
}

// TestCheckFeasibleSkipsRemoved: an infeasible task stops blocking
// CheckFeasible once removed — expiring unservable tasks is exactly how a
// live platform restores feasibility.
func TestCheckFeasibleSkipsRemoved(t *testing.T) {
	in := &Instance{
		Tasks: []Task{
			{ID: 0, Loc: geo.Point{X: 1, Y: 1}},
			{ID: 1, Loc: geo.Point{X: 9000, Y: 9000}}, // no worker nearby: infeasible
		},
		Workers: []Worker{{Index: 1, Loc: geo.Point{X: 1, Y: 2}, Acc: 0.95}},
		Epsilon: 0.9, // tiny δ so one strong worker suffices
		K:       1,
		Model:   SigmoidDistance{DMax: 30},
		MinAcc:  0.5,
	}
	ci := NewCandidateIndex(in)
	if err := ci.CheckFeasible(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("feasible with an unreachable task: %v", err)
	}
	if err := ci.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := ci.CheckFeasible(); err != nil {
		t.Fatalf("infeasible after removing the unreachable task: %v", err)
	}
}

// TestArrangementEnsureTasks covers the dynamic credit-table growth.
func TestArrangementEnsureTasks(t *testing.T) {
	a := NewArrangement(2)
	a.Add(1, 0, 0.5)
	a.EnsureTasks(4)
	if len(a.Accumulated) != 4 || a.Accumulated[0] != 0.5 {
		t.Fatalf("after grow: %v", a.Accumulated)
	}
	a.EnsureTasks(2) // never shrinks
	if len(a.Accumulated) != 4 {
		t.Fatalf("shrunk to %d", len(a.Accumulated))
	}
	a.Add(3, 3, 0.25)
	if a.Accumulated[3] != 0.25 || a.Latency() != 3 {
		t.Fatalf("post-grow add broken: %v latency %d", a.Accumulated, a.Latency())
	}
}

// TestSubInstanceAppendTask: growth keeps local IDs dense, the global
// mapping aligned, and ID-sensitive models resolving appended tasks through
// their source identity.
func TestSubInstanceAppendTask(t *testing.T) {
	in := partitionInstance(30, 19)
	vals := make([][]float64, 40) // room for appended global IDs
	for tid := range vals {
		row := make([]float64, 8)
		for wi := range row {
			row[wi] = float64(tid*8+wi+1) / 1000
		}
		vals[tid] = row
	}
	in.Model = MatrixAccuracy{Vals: vals}
	p, err := PartitionInstanceOpts(in, 4, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub := p.Shards[0]
	before := len(sub.In.Tasks)
	global := Task{ID: TaskID(len(in.Tasks)), Loc: geo.Point{X: 7, Y: 7}}
	local := sub.AppendTask(global)
	if int(local.ID) != before || local.Loc != global.Loc {
		t.Fatalf("local task %+v", local)
	}
	if len(sub.In.Tasks) != before+1 || len(sub.Global) != before+1 {
		t.Fatal("sub-instance slices out of step")
	}
	if sub.Global[local.ID] != global.ID {
		t.Fatalf("global mapping %d, want %d", sub.Global[local.ID], global.ID)
	}
	if got := sub.SourceTask(local.ID); got != global {
		t.Fatalf("SourceTask %+v, want %+v", got, global)
	}
	// The wrapped model must key off the appended task's *global* ID.
	w := Worker{Index: 3, Acc: 0.9}
	if got, want := sub.In.Model.Predict(w, local), in.Model.Predict(w, global); got != want {
		t.Fatalf("Predict %v, want %v", got, want)
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
