package dispatch

import (
	"errors"
	"slices"
	"testing"

	"ltc/internal/events"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// feedSequential replays the stream through per-call CheckIn with the
// standard done-precheck loop, returning each fed worker's receipt.
func feedSequential(t *testing.T, d *Dispatcher, ws []model.Worker) []Receipt {
	t.Helper()
	var out []Receipt
	for _, w := range ws {
		if d.Done() {
			break
		}
		rec, err := d.CheckIn(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestCheckInBatchTruncatesAtDone: completion mid-batch truncates the
// result to the ingested prefix, leaves the rest unobserved (no arrival
// count, no clock tick), and a PostTask revival accepts the re-presented
// tail.
func TestCheckInBatchTruncatesAtDone(t *testing.T) {
	in := lifecycleInstance(6, 500, 50, 11)
	d, err := New(in, 1, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.CheckInBatch(in.Workers)
	if !errors.Is(err, ErrDone) {
		t.Fatalf("full-stream batch err = %v, want ErrDone", err)
	}
	if len(out) == 0 || len(out) >= len(in.Workers) {
		t.Fatalf("ingested %d of %d workers — expected a strict prefix", len(out), len(in.Workers))
	}
	if got := d.Arrived(); got != len(out) {
		t.Fatalf("arrived %d, want %d (unconsumed workers must not count)", got, len(out))
	}
	clock := d.arrivalClock()
	if clock != len(out) {
		t.Fatalf("arrival clock %d, want %d", clock, len(out))
	}

	// Already-done platform: nothing ingested, clock untouched.
	rest := in.Workers[len(out):]
	if out2, err := d.CheckInBatch(rest); !errors.Is(err, ErrDone) || len(out2) != 0 {
		t.Fatalf("done-platform batch = %d results, err %v", len(out2), err)
	}
	if d.arrivalClock() != clock {
		t.Fatal("done-platform batch ticked the arrival clock")
	}

	// Revive and re-present the tail: it must now be consumed.
	gid, err := d.PostTask(model.Task{Loc: rest[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	out3, err := d.CheckInBatch(rest)
	if err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}
	if len(out3) == 0 {
		t.Fatal("revived platform consumed nothing")
	}
	if !d.TaskStatuses()[gid].Completed {
		t.Fatalf("revival task %d incomplete after tail replay", gid)
	}
}

// TestCheckInBatchGroupedTruncation: one batch over three shards, in which
// shard A completes early, shard B completes last at position p*, shard C
// was done before the batch, and every shard has workers after p*. The
// batch must match a per-call replay on a twin dispatcher — receipts,
// arrivals, arrival clock and event sequence — and so must the tail
// re-presented after a PostTask revival.
func TestCheckInBatchGroupedTruncation(t *testing.T) {
	// One task at A and C, two at B; with K = 1 and ε = 0.9 one worker
	// standing on a task completes it (see completingInstance).
	// Three striped shards are three rows.
	locA, locB, locC := geo.Point{X: 0, Y: 0}, geo.Point{X: 0, Y: 100}, geo.Point{X: 0, Y: 200}
	in := &model.Instance{Epsilon: 0.9, K: 1, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for _, loc := range []geo.Point{locA, locB, locB, locC} {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(len(in.Tasks)), Loc: loc})
	}
	at := func(idx int, loc geo.Point) model.Worker { return model.Worker{Index: idx, Loc: loc, Acc: 0.95} }
	batch := []model.Worker{
		at(2, locA), // completes A
		at(3, locB), // completes one of B's tasks
		at(4, locC), // bounces: C was done before the batch
		at(5, locA), // bounces: A is done
		at(6, locB), // completes B and the platform: p* = 4
		// After p*, on every shard: never observed.
		at(7, locA), at(8, locB), at(9, locC),
	}
	const pStar = 4

	type twin struct {
		d   *Dispatcher
		sub *events.Subscription
	}
	newTwin := func() twin {
		d, err := New(in, 3, lafFactory)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		if a, b, c := d.part.Locate(locA), d.part.Locate(locB), d.part.Locate(locC); a == b || b == c || a == c {
			t.Fatalf("layout: A, B and C on shards %d, %d and %d", a, b, c)
		}
		if _, err := d.CheckIn(at(1, locC)); err != nil || d.Done() {
			t.Fatalf("completing C: err %v, done %v", err, d.Done())
		}
		return twin{d, d.Subscribe(64)}
	}
	grouped, perCall := newTwin(), newTwin()

	compare := func(phase string, ws []model.Worker, wantLen int) {
		t.Helper()
		got, err := grouped.d.CheckInBatch(ws)
		if !errors.Is(err, ErrDone) {
			t.Fatalf("%s: err = %v, want ErrDone", phase, err)
		}
		want := feedSequential(t, perCall.d, ws)
		if len(got) != wantLen || len(want) != wantLen {
			t.Fatalf("%s: %d receipts, per-call %d, want %d", phase, len(got), len(want), wantLen)
		}
		for i, w := range want {
			g := got[i]
			if g.Worker != w.Worker || g.Shard != w.Shard || g.Done != w.Done || !slices.Equal(g.Assignments, w.Assignments) {
				t.Fatalf("%s: receipt %d = %+v, per-call %+v", phase, i, g, w)
			}
		}
		if g, w := grouped.d.Arrived(), perCall.d.Arrived(); g != w {
			t.Fatalf("%s: arrived %d, per-call %d", phase, g, w)
		}
		if g, w := grouped.d.arrivalClock(), perCall.d.arrivalClock(); g != w {
			t.Fatalf("%s: arrival clock %d, per-call %d", phase, g, w)
		}
	}
	compare("batch", batch, pStar+1)
	if g := grouped.d.arrivalClock(); g != batch[pStar].Index {
		t.Fatalf("arrival clock %d, want p*'s index %d", g, batch[pStar].Index)
	}

	// Revive the platform at A and re-present the tail: its first worker
	// completes the new task, and the rest stay unobserved again.
	for _, tw := range []twin{grouped, perCall} {
		if _, err := tw.d.PostTask(model.Task{Loc: locA}); err != nil {
			t.Fatal(err)
		}
	}
	compare("tail", batch[pStar+1:], 1)

	ge, we := drainEvents(grouped.sub), drainEvents(perCall.sub)
	if !slices.Equal(ge, we) {
		t.Fatalf("events %+v, per-call %+v", ge, we)
	}
	if n := len(ge); n == 0 || ge[n-1].Kind != events.PlatformDone {
		t.Fatalf("events %+v do not end with PlatformDone", ge)
	}
}

// TestCheckInBatchManyShards: on more shards than the scratch window has
// buckets, a bucket holds several shards and each same-shard stretch of it
// is a run of its own. Batches longer than the window, fed until the
// platform completes, must still match a per-call replay on a twin.
func TestCheckInBatchManyShards(t *testing.T) {
	in := lifecycleInstance(200, 4000, 60, 5)
	var twins [2]*Dispatcher
	var subs [2]*events.Subscription
	for i := range twins {
		d, err := New(in, 36, aamFactory)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		if d.NumShards() <= batchBuckets {
			t.Fatalf("%d shards, want more than %d", d.NumShards(), batchBuckets)
		}
		twins[i], subs[i] = d, d.Subscribe(4*len(in.Tasks))
	}
	grouped, perCall := twins[0], twins[1]
	var got []Receipt
	for i := 0; i < len(in.Workers) && !grouped.Done(); i += 3 * batchWindow / 2 {
		out, err := grouped.CheckInBatch(in.Workers[i:min(i+3*batchWindow/2, len(in.Workers))])
		if err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	if !grouped.Done() {
		t.Fatal("stream exhausted before completion")
	}
	want := feedSequential(t, perCall, in.Workers)
	if len(got) != len(want) {
		t.Fatalf("%d receipts, per-call %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Worker != w.Worker || g.Shard != w.Shard || g.Done != w.Done || !slices.Equal(g.Assignments, w.Assignments) {
			t.Fatalf("receipt %d = %+v, per-call %+v", i, g, w)
		}
	}
	if g, w := grouped.Arrived(), perCall.Arrived(); g != w {
		t.Fatalf("arrived %d, per-call %d", g, w)
	}
	if ge, we := drainEvents(subs[0]), drainEvents(subs[1]); !slices.Equal(ge, we) {
		t.Fatalf("events differ: %d grouped, %d per-call", len(ge), len(we))
	}
}

// TestCheckInBatchValidation: a bad index anywhere fails the whole batch
// upfront; an empty batch is a no-op.
func TestCheckInBatchValidation(t *testing.T) {
	in := testInstance(t, 0.01)
	d, err := New(in, 2, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	bad := []model.Worker{in.Workers[0], {Index: 0, Loc: in.Workers[1].Loc}}
	if _, err := d.CheckInBatch(bad); !errors.Is(err, ErrBadWorkerIndex) {
		t.Fatalf("err = %v, want ErrBadWorkerIndex", err)
	}
	if got := d.Arrived(); got != 0 {
		t.Fatalf("rejected batch counted %d arrivals", got)
	}
	out, err := d.CheckInBatch(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

// TestNewRejectsBadOptions: a negative queue capacity fails construction.
func TestNewRejectsBadOptions(t *testing.T) {
	in := testInstance(t, 0.01)
	if _, err := New(in, 2, lafFactory, Options{QueueCap: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("QueueCap<0: err = %v", err)
	}
}
