package dispatch

import (
	"testing"

	"ltc/internal/events"
	"ltc/internal/model"
)

// drainEvents closes the subscription and collects everything buffered.
func drainEvents(sub *events.Subscription) []events.Event {
	sub.Close()
	var out []events.Event
	for e := range sub.Events() {
		out = append(out, e)
	}
	return out
}

// TestEventsPerCallStream: a per-call sequential feed publishes exactly one
// TaskCompleted per task — in completion order, carrying the completing
// worker — followed by one PlatformDone.
func TestEventsPerCallStream(t *testing.T) {
	in := testInstance(t, 0.01)
	d, err := New(in, 2, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subscribe(4 * len(in.Tasks))
	recs := feedSequential(t, d, in.Workers)
	if !d.Done() {
		t.Fatal("incomplete")
	}
	// Receipts and events must tell the same completion story.
	wantCompletions := make(map[model.TaskID]int)
	for _, r := range recs {
		for _, g := range r.Assignments {
			if g.Completed {
				wantCompletions[g.Task] = r.Worker
			}
		}
	}
	got := drainEvents(sub)
	completed := make(map[model.TaskID]int)
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — drops on an unbounded-enough buffer", i, e.Seq)
		}
		switch e.Kind {
		case events.TaskCompleted:
			if _, dup := completed[e.Task]; dup {
				t.Fatalf("task %d completed twice", e.Task)
			}
			completed[e.Task] = e.Worker
		case events.PlatformDone:
			if i != len(got)-1 {
				t.Fatalf("PlatformDone at %d of %d", i, len(got))
			}
			if e.Task != -1 {
				t.Fatalf("PlatformDone task = %d, want -1", e.Task)
			}
		default:
			t.Fatalf("unexpected event %+v", e)
		}
	}
	if got[len(got)-1].Kind != events.PlatformDone {
		t.Fatal("no PlatformDone")
	}
	if len(completed) != len(in.Tasks) {
		t.Fatalf("%d completion events, want %d", len(completed), len(in.Tasks))
	}
	for task, worker := range wantCompletions {
		if completed[task] != worker {
			t.Fatalf("task %d completed by worker %d per receipt, %d per event", task, worker, completed[task])
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("%d drops", sub.Dropped())
	}
}

// TestEventsLifecycle: PostTask and RetireTask publish TaskPosted (with the
// arrival-clock anchor) and TaskRetired; retiring the last open task
// publishes PlatformDone; double retires stay silent; a revival produces a
// second PlatformDone when it resolves.
func TestEventsLifecycle(t *testing.T) {
	in := lifecycleInstance(4, 40, 60, 13)
	d, err := New(in, 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subscribe(64)
	// Tick the clock to 5, then post: the event must anchor there.
	for i := 1; i <= 5; i++ {
		if _, err := d.CheckIn(in.Workers[i-1]); err != nil {
			t.Fatal(err)
		}
	}
	gid, err := d.PostTask(model.Task{Loc: in.Tasks[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve everything by retiring; the last open retire flips the
	// platform done.
	statuses := d.TaskStatuses()
	for id := range statuses {
		if err := d.RetireTask(model.TaskID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Fatal("not done after retiring everything")
	}
	if err := d.RetireTask(gid); err != nil { // second retire: no event
		t.Fatal(err)
	}
	// Revive with a post, then retire it again.
	gid2, err := d.PostTask(model.Task{Loc: in.Tasks[1].Loc})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RetireTask(gid2); err != nil {
		t.Fatal(err)
	}

	var posted, retired, dones int
	var sawPost1 bool
	for _, e := range drainEvents(sub) {
		switch e.Kind {
		case events.TaskPosted:
			posted++
			if e.Task == gid {
				sawPost1 = true
				if e.PostIndex != 5 {
					t.Fatalf("post index %d, want 5", e.PostIndex)
				}
			}
		case events.TaskRetired:
			retired++
		case events.PlatformDone:
			dones++
		case events.TaskCompleted:
			// Workers 1..5 may have completed some tasks; fine.
		}
	}
	if posted != 2 || !sawPost1 {
		t.Fatalf("%d TaskPosted (saw first: %v), want 2", posted, sawPost1)
	}
	// Every task ever known retired exactly once (the double retire of gid
	// published nothing).
	if want := len(in.Tasks) + 2; retired != want {
		t.Fatalf("%d TaskRetired, want %d", retired, want)
	}
	if dones != 2 {
		t.Fatalf("%d PlatformDone, want 2 (initial resolve + revival resolve)", dones)
	}
}
