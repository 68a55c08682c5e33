package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ltc"
)

// newGateway builds a Table IV preset platform behind an httptest server
// plus a client, mirroring what cmd/ltcd serves.
func newGateway(t *testing.T, scale float64, seed uint64, shards int, opts ...ltc.Option) (*ltc.Instance, *Client, func()) {
	t.Helper()
	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]ltc.Option{ltc.WithShards(shards), ltc.WithSeed(seed)}, opts...)
	plat, err := ltc.NewPlatform(in, ltc.AAM, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(plat, ltc.AAM, shards))
	return in, &Client{Base: srv.URL, HTTP: srv.Client()}, srv.Close
}

// TestGatewayEndToEnd is the ISSUE's acceptance test: an HTTP-fed Table IV
// preset run completes with the same latency as the in-process Platform,
// and every TaskCompleted event is delivered exactly once to an SSE
// subscriber that keeps up.
func TestGatewayEndToEnd(t *testing.T) {
	const (
		scale  = 0.01 // Table IV @1%: 30 tasks, 400 workers
		seed   = 42
		shards = 1
	)
	in, client, shutdown := newGateway(t, scale, seed, shards)
	defer shutdown()

	// In-process reference: the same stream through a local Platform.
	ref, err := ltc.NewPlatform(in, ltc.AAM, ltc.WithShards(shards), ltc.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.Workers {
		if ref.Done() {
			break
		}
		if _, err := ref.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Done() {
		t.Fatal("reference platform incomplete")
	}

	// Subscribe before feeding: OpenEvents returning means the server-side
	// subscription is live, so no completion can slip past it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := client.OpenEvents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stream.Close() }()

	events := make(chan Event, 4096)
	streamDone := make(chan error, 1)
	go func() {
		defer close(events)
		for {
			e, err := stream.Next()
			if err == io.EOF {
				streamDone <- nil
				return
			}
			if err != nil {
				streamDone <- err
				return
			}
			events <- e
		}
	}()

	// Feed the stream over the wire, checking each receipt as it arrives.
	var done bool
	for _, w := range in.Workers {
		if done {
			break
		}
		rec, err := client.CheckIn(FromWorker(w))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Bounced {
			t.Fatalf("worker %d bounced before completion", w.Index)
		}
		if rec.Worker != w.Index {
			t.Fatalf("receipt echoes worker %d, sent %d", rec.Worker, w.Index)
		}
		done = rec.Done
	}
	if !done {
		t.Fatal("HTTP feed ended without a done receipt")
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Resolved != st.Total || st.Total != len(in.Tasks) {
		t.Fatalf("stats after completion: %+v", st)
	}
	if st.Latency != ref.Latency() {
		t.Fatalf("HTTP-fed latency %d != in-process latency %d", st.Latency, ref.Latency())
	}
	if st.Algo != "AAM" || st.Shards != shards {
		t.Fatalf("stats identity: %+v", st)
	}

	// Drain the event stream: exactly one task_completed per task, then
	// platform_done, with strictly increasing sequence numbers (no drops).
	completed := make(map[int]int)
	var lastSeq uint64
	sawDone := false
	for len(completed) < len(in.Tasks) || !sawDone {
		e, ok := <-events
		if !ok {
			t.Fatalf("stream ended early: %d/%d completions, done=%v, err=%v",
				len(completed), len(in.Tasks), sawDone, <-streamDone)
		}
		if e.Seq != lastSeq+1 {
			t.Fatalf("sequence gap: %d after %d — events were dropped", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "task_completed":
			completed[e.Task]++
			if completed[e.Task] > 1 {
				t.Fatalf("task %d completed twice", e.Task)
			}
			if e.Worker < 1 || e.Worker > ref.Latency() {
				t.Fatalf("completion worker %d out of range", e.Worker)
			}
		case "platform_done":
			sawDone = true
		default:
			t.Fatalf("unexpected event kind %q mid-run", e.Kind)
		}
	}
	if len(completed) != len(in.Tasks) {
		t.Fatalf("%d distinct completions, want %d", len(completed), len(in.Tasks))
	}
	cancel()
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayBatchAndLifecycle drives /checkin/batch, /tasks and /stats:
// batched HTTP ingestion matches the in-process run, and the task
// lifecycle round-trips (post → complete, retire → 204, unknown → 404).
func TestGatewayBatchAndLifecycle(t *testing.T) {
	in, client, shutdown := newGateway(t, 0.01, 7, 2)
	defer shutdown()

	ref, err := ltc.NewPlatform(in, ltc.AAM, ltc.WithShards(2), ltc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	// Post one extra task over the wire and in-process at the same stream
	// position (before any worker).
	refID, err := ref.PostTask(ltc.Task{Loc: in.Tasks[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	gwID, err := client.postTask(in.Tasks[0].Loc.X, in.Tasks[0].Loc.Y)
	if err != nil {
		t.Fatal(err)
	}
	if gwID != int(refID) {
		t.Fatalf("gateway posted ID %d, in-process %d", gwID, refID)
	}

	// Feed both in identical batches of 32.
	wire := make([]Worker, len(in.Workers))
	for i, w := range in.Workers {
		wire[i] = FromWorker(w)
	}
	for i := 0; i < len(in.Workers); i += 32 {
		j := min(i+32, len(in.Workers))
		_, gwDone, err := client.CheckInBatch(wire[i:j])
		if err != nil {
			t.Fatal(err)
		}
		refRecs, refErr := ref.CheckInBatch(in.Workers[i:j])
		refDone := errors.Is(refErr, ltc.ErrPlatformDone)
		if refErr != nil && !refDone {
			t.Fatal(refErr)
		}
		// Mirror the wire contract: completion exactly on the batch's last
		// worker reports done without the truncation error.
		if n := len(refRecs); n > 0 && refRecs[n-1].Done {
			refDone = true
		}
		if gwDone != refDone {
			t.Fatalf("batch at %d: gateway done=%v, in-process done=%v", i, gwDone, refDone)
		}
		if gwDone {
			break
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Latency != ref.Latency() || st.Total != len(in.Tasks)+1 {
		t.Fatalf("gateway stats %+v vs in-process latency %d", st, ref.Latency())
	}
	if st.WorkersSeen != ref.WorkersSeen() {
		t.Fatalf("workers seen %d, want %d", st.WorkersSeen, ref.WorkersSeen())
	}
	// Load observability over the wire: imbalance mirrors the in-process
	// value, per-shard accounts carry no async backlog on a batch-fed
	// gateway, and the striped default reports Balanced = false.
	if st.Imbalance != ref.Imbalance() {
		t.Fatalf("imbalance %v, want %v", st.Imbalance, ref.Imbalance())
	}
	if st.Balanced {
		t.Fatal("striped gateway reports balanced layout")
	}
	for i, sh := range st.ShardStats {
		if sh.QueueDepth != 0 {
			t.Fatalf("shard %d: queue depth %d on a batch-fed gateway", i, sh.QueueDepth)
		}
	}

	// Retire is idempotent on completed tasks, 404 on unknown IDs.
	if err := client.RetireTask(gwID); err != nil {
		t.Fatal(err)
	}
	if err := client.RetireTask(99999); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown retire err = %v, want 404", err)
	}
}

// TestGatewayErrorPaths covers the HTTP error surface: malformed bodies,
// invalid worker indices, and bounced check-ins after completion.
func TestGatewayErrorPaths(t *testing.T) {
	in, client, shutdown := newGateway(t, 0.01, 3, 1)
	defer shutdown()

	if _, err := client.CheckIn(Worker{Index: 0}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("zero index err = %v, want 400", err)
	}
	if _, _, err := client.CheckInBatch([]Worker{{Index: -1}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	resp, err := client.client().Post(client.Base+"/checkin", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
	resp, err = client.client().Post(client.Base+"/tasks", "application/json", strings.NewReader("nope"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed task body: HTTP %d", resp.StatusCode)
	}

	// Complete the platform, then observe the bounced-receipt contract.
	for _, w := range in.Workers {
		rec, err := client.CheckIn(FromWorker(w))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Done && !rec.Bounced {
			break
		}
	}
	rec, err := client.CheckIn(Worker{Index: len(in.Workers) + 1, Acc: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Bounced || !rec.Done || rec.Shard != -1 {
		t.Fatalf("post-completion receipt %+v, want bounced", rec)
	}
}
