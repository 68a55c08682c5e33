package dispatch

import (
	"errors"
	"testing"

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
