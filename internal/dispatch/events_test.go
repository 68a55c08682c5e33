package dispatch

import (
	"context"
	"errors"
	"runtime"
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

// TestEventsBatchedStreamMatchesPerCall: the batched inner loop publishes
// the same completion set as per-call ingestion (order within the stream
// is the per-shard completion order either way on a sequential feed).
func TestEventsBatchedStreamMatchesPerCall(t *testing.T) {
	in := testInstance(t, 0.01)
	run := func(batch int) []events.Event {
		d, err := New(in, 2, lafFactory)
		if err != nil {
			t.Fatal(err)
		}
		sub := d.Subscribe(4 * len(in.Tasks))
		if batch == 0 {
			feedSequential(t, d, in.Workers)
		} else {
			feedBatched(t, d, in.Workers, batch)
		}
		return drainEvents(sub)
	}
	want := run(0)
	for _, batch := range []int{1, 33, len(in.Workers)} {
		got := run(batch)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d events, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: event %d = %+v, want %+v", batch, i, got[i], want[i])
			}
		}
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

// TestCheckInAsyncCtxPreCancelled: an already-done context fails before
// anything is queued; the worker is never observed.
func TestCheckInAsyncCtxPreCancelled(t *testing.T) {
	in := testInstance(t, 0.01)
	d, err := New(in, 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.CheckInAsyncCtx(ctx, in.Workers[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := d.CheckInAsyncCtx(ctx, model.Worker{Index: 0}); !errors.Is(err, ErrBadWorkerIndex) {
		t.Fatalf("bad index err = %v", err)
	}
	d.Flush()
	if got := d.Arrived(); got != 0 {
		t.Fatalf("cancelled enqueue counted %d arrivals", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInAsyncCtxCancelWhileBlocked: cancelling a context releases an
// enqueue blocked on a full queue with ctx.Err(); the worker is not
// enqueued, Flush does not wait for it, and the queue keeps working.
func TestCheckInAsyncCtxCancelWhileBlocked(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 17)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted := stallFull(t, d, in.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	blocked := blockOne(t, d, ctx, in.Workers[accepted])
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked enqueue err = %v, want context.Canceled", err)
	}
	d.shards[0].mu.Unlock()
	d.Flush()
	// Exactly the accepted workers arrived; the cancelled one is gone.
	if got := d.Arrived(); got != accepted {
		t.Fatalf("arrived %d, want %d", got, accepted)
	}
	// The async path survives a cancellation: a fresh cancellable enqueue
	// with a free slot succeeds without blocking.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := d.CheckInAsyncCtx(ctx2, in.Workers[accepted+1]); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	if got := d.Arrived(); got != accepted+1 {
		t.Fatalf("arrived %d, want %d", got, accepted+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInAsyncCtxClosedWhileBlocked: a blocked enqueue that wakes to
// find the dispatcher closed and its context cancelled fails with ErrClosed
// (the closed check precedes the ctx check), mirroring CheckInAsync's
// contract.
func TestCheckInAsyncCtxClosedWhileBlocked(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 19)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted := stallFull(t, d, in.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := blockOne(t, d, ctx, in.Workers[accepted])
	// Hold the enqueue in its wait until both ways out are armed.
	q := d.queues[0]
	q.mu.Lock()
	closed := make(chan struct{})
	go func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		close(closed)
	}()
	for !d.closed.Load() {
		runtime.Gosched()
	}
	cancel()
	q.mu.Unlock()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked enqueue err = %v, want ErrClosed", err)
	}
	d.shards[0].mu.Unlock()
	<-closed
}
