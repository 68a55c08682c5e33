package dispatch

import (
	"errors"
	"fmt"
	"testing"

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

// feedBatched replays the stream through CheckInBatch in chunks of size b,
// stopping at the truncation signal.
func feedBatched(t *testing.T, d *Dispatcher, ws []model.Worker, b int) []Receipt {
	t.Helper()
	var out []Receipt
	for i := 0; i < len(ws); i += b {
		j := i + b
		if j > len(ws) {
			j = len(ws)
		}
		res, err := d.CheckInBatch(ws[i:j])
		if err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
		out = append(out, res...)
		if err != nil {
			break
		}
	}
	return out
}

// requireSameReceipts asserts two sequential replays produced identical
// receipts: same echoed worker, shard, done flag and per-assignment grants.
func requireSameReceipts(t *testing.T, label string, want, got []Receipt) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fed %d workers, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Worker != g.Worker || w.Shard != g.Shard || w.Done != g.Done {
			t.Fatalf("%s: receipt %d = %+v, want %+v", label, i, g, w)
		}
		if len(w.Assignments) != len(g.Assignments) {
			t.Fatalf("%s: worker %d got %v, want %v", label, i+1, g.Assignments, w.Assignments)
		}
		for k := range w.Assignments {
			if w.Assignments[k] != g.Assignments[k] {
				t.Fatalf("%s: worker %d grant %d = %+v, want %+v", label, i+1, k, g.Assignments[k], w.Assignments[k])
			}
		}
	}
}

// requireSameState asserts two dispatchers fed equivalent streams agree on
// every observable: latency, progress, arrivals, statuses, credits and the
// merged arrangement (bitwise).
func requireSameState(t *testing.T, want, got *Dispatcher) {
	t.Helper()
	if want.Latency() != got.Latency() {
		t.Fatalf("latency %d, want %d", got.Latency(), want.Latency())
	}
	if want.RelativeLatency() != got.RelativeLatency() {
		t.Fatalf("relative latency %d, want %d", got.RelativeLatency(), want.RelativeLatency())
	}
	if want.Arrived() != got.Arrived() {
		t.Fatalf("arrived %d, want %d", got.Arrived(), want.Arrived())
	}
	wr, wt := want.Progress()
	gr, gt := got.Progress()
	if wr != gr || wt != gt {
		t.Fatalf("progress %d/%d, want %d/%d", gr, gt, wr, wt)
	}
	ws, gs := want.TaskStatuses(), got.TaskStatuses()
	if len(ws) != len(gs) {
		t.Fatalf("%d statuses, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("status %d: %+v, want %+v", i, gs[i], ws[i])
		}
	}
	wc, gc := want.Credits(nil), got.Credits(nil)
	for i := range wc {
		if wc[i] != gc[i] {
			t.Fatalf("credit %d drifted: %v, want %v", i, gc[i], wc[i])
		}
	}
	wa, ga := want.Arrangement(), got.Arrangement()
	if len(wa.Pairs) != len(ga.Pairs) {
		t.Fatalf("%d pairs, want %d", len(ga.Pairs), len(wa.Pairs))
	}
	for i := range wa.Pairs {
		if wa.Pairs[i] != ga.Pairs[i] {
			t.Fatalf("pair %d: %+v, want %+v", i, ga.Pairs[i], wa.Pairs[i])
		}
	}
}

// TestCheckInBatchMatchesSequential: for several shard counts and batch
// sizes, a sequentially fed CheckInBatch stream is bit-identical — per
// worker and in every aggregate — to the same stream through per-call
// CheckIn.
func TestCheckInBatchMatchesSequential(t *testing.T) {
	in := testInstance(t, 0.02)
	for _, shards := range []int{1, 4} {
		base, err := New(in, shards, aamFactory)
		if err != nil {
			t.Fatal(err)
		}
		wantOut := feedSequential(t, base, in.Workers)
		for _, b := range []int{1, 7, 64, len(in.Workers)} {
			d, err := New(in, shards, aamFactory)
			if err != nil {
				t.Fatal(err)
			}
			gotOut := feedBatched(t, d, in.Workers, b)
			requireSameReceipts(t, fmt.Sprintf("shards=%d b=%d", shards, b), wantOut, gotOut)
			requireSameState(t, base, d)
		}
	}
}

// TestCheckInBatchLifecycleEquivalence: interleaving PostTask/RetireTask at
// the same stream positions keeps the batched and per-call paths in
// lockstep — posted tasks get identical post indices and statuses.
func TestCheckInBatchLifecycleEquivalence(t *testing.T) {
	in := lifecycleInstance(12, 600, 80, 5)
	script := func(t *testing.T, feed func(d *Dispatcher, ws []model.Worker)) *Dispatcher {
		d, err := New(in, 3, lafFactory)
		if err != nil {
			t.Fatal(err)
		}
		feed(d, in.Workers[:200])
		gid, err := d.PostTask(model.Task{Loc: geo.Point{X: 40, Y: 40}})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RetireTask(gid / 2); err != nil {
			t.Fatal(err)
		}
		feed(d, in.Workers[200:])
		return d
	}
	want := script(t, func(d *Dispatcher, ws []model.Worker) { feedSequential(t, d, ws) })
	got := script(t, func(d *Dispatcher, ws []model.Worker) { feedBatched(t, d, ws, 37) })
	requireSameState(t, want, got)
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
	clock := d.maxSeen.Load()
	if int(clock) != len(out) {
		t.Fatalf("arrival clock %d, want %d", clock, len(out))
	}

	// Already-done platform: nothing ingested, clock untouched.
	rest := in.Workers[len(out):]
	if out2, err := d.CheckInBatch(rest); !errors.Is(err, ErrDone) || len(out2) != 0 {
		t.Fatalf("done-platform batch = %d results, err %v", len(out2), err)
	}
	if d.maxSeen.Load() != clock {
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
