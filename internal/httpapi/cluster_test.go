package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/geo"
)

// clusterFixture is a booted in-process cluster: one ClusterServer per
// topology node behind httptest, and a routing client over them.
type clusterFixture struct {
	topo  *cluster.Topology
	split *cluster.Split
	plats []*ltc.Platform // nil for nodes owning no tasks
	urls  []string
	cc    *ClusterClient
}

func newCluster(t *testing.T, in *ltc.Instance, nodes, shards int, algo ltc.Algorithm, seed uint64, opts ...ltc.Option) *clusterFixture {
	t.Helper()
	topo, err := cluster.Build(in, nodes)
	if err != nil {
		t.Fatal(err)
	}
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	f := &clusterFixture{topo: topo, split: split}
	for n := 0; n < nodes; n++ {
		var plat *ltc.Platform
		if sub := split.Subs[n]; sub != nil {
			plat, err = ltc.NewPlatform(sub.In, algo, append([]ltc.Option{ltc.WithShards(shards), ltc.WithSeed(seed)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = plat.Close() })
		}
		cs, err := NewClusterServer(plat, algo, shards, topo, n, split)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cs.Close)
		srv := httptest.NewServer(cs.Handler())
		t.Cleanup(srv.Close)
		f.plats = append(f.plats, plat)
		f.urls = append(f.urls, srv.URL)
	}
	f.cc, err = NewClusterClient(f.urls, topo)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// tableIV regenerates a Table IV preset workload.
func tableIV(t *testing.T, scale float64, seed uint64) *ltc.Instance {
	t.Helper()
	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func (f *clusterFixture) syncNow(t *testing.T) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := f.cc.Sync(ctx)
	return err
}

// TestClusterEndToEndThreeNode drives a 3-node cluster through the full
// audit the CI smoke job runs at the wire level: fingerprint-checked sync,
// a sequential feed to completion, the folded stats agreeing with an
// in-process per-node reference replay, and the merged event stream
// delivering exactly one task_completed per global task plus one
// platform_done per task-owning node, in one gapless cluster sequence.
func TestClusterEndToEndThreeNode(t *testing.T) {
	const (
		seed   = 42
		shards = 2
	)
	in := tableIV(t, 0.01, seed) // 30 tasks, 400 workers
	f := newCluster(t, in, 3, shards, ltc.AAM, seed)
	if err := f.syncNow(t); err != nil {
		t.Fatal(err)
	}

	// Reference replay: the same stream through in-process platforms, split
	// by the same routing.
	refs := make([]*ltc.Platform, f.topo.Nodes)
	for n, sub := range f.split.Subs {
		if sub == nil {
			continue
		}
		ref, err := ltc.NewPlatform(sub.In, ltc.AAM, ltc.WithShards(shards), ltc.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ref.Close() }()
		refs[n] = ref
	}
	refsDone := func() bool {
		for _, ref := range refs {
			if ref != nil && !ref.Done() {
				return false
			}
		}
		return true
	}

	var fed int
	for _, w := range in.Workers {
		if f.cc.Complete() {
			break
		}
		rec, err := f.cc.CheckIn(FromWorker(w))
		if err != nil {
			t.Fatalf("worker %d: %v", w.Index, err)
		}
		if rec.Worker != w.Index {
			t.Fatalf("receipt echoes worker %d, fed %d", rec.Worker, w.Index)
		}
		fed++
		// Mirror on the reference: same stop rule, same routing, bounces and
		// all — the wire must be invisible.
		if _, err := refs[f.topo.NodeFor(w.Loc)].CheckIn(w); err != nil && !errors.Is(err, ltc.ErrPlatformDone) {
			t.Fatal(err)
		}
	}
	if !refsDone() {
		t.Fatal("reference replay incomplete")
	}

	st, err := f.cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Resolved != st.Total || st.Total != len(in.Tasks) {
		t.Fatalf("cluster incomplete: %+v", st)
	}
	if st.WorkersSeen != fed {
		t.Fatalf("summed workers_seen %d != %d fed", st.WorkersSeen, fed)
	}
	wantLatency := 0
	for n, ref := range refs {
		if ref == nil {
			continue
		}
		if ref.Latency() != st.Nodes[n].Latency {
			t.Fatalf("node %d latency: wire %d, reference %d", n, st.Nodes[n].Latency, ref.Latency())
		}
		if ref.WorkersSeen() != st.Nodes[n].WorkersSeen {
			t.Fatalf("node %d workers_seen: wire %d, reference %d", n, st.Nodes[n].WorkersSeen, ref.WorkersSeen())
		}
		wantLatency = max(wantLatency, ref.Latency())
	}
	if st.Latency != wantLatency {
		t.Fatalf("cluster latency fold %d != reference max %d", st.Latency, wantLatency)
	}

	// Merged event audit. Nodes record their log from boot, so subscribing
	// after the run replays everything; the merger enforces gaplessness.
	taskNodes := 0
	for _, sub := range f.split.Subs {
		if sub != nil {
			taskNodes++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stream := f.cc.OpenClusterEvents(ctx)
	defer stream.Close()
	completions := make(map[int]int)
	platformDone := 0
	var lastSeq uint64
	for platformDone < taskNodes || len(completions) < len(in.Tasks) {
		e, err := stream.Next()
		if err != nil {
			t.Fatalf("merged stream ended early (%v): %d/%d completions, %d/%d platform_done",
				err, len(completions), len(in.Tasks), platformDone, taskNodes)
		}
		if e.ClusterSeq != lastSeq+1 {
			t.Fatalf("cluster sequence not dense: %d after %d", e.ClusterSeq, lastSeq)
		}
		lastSeq = e.ClusterSeq
		switch e.Kind {
		case "task_completed":
			if e.Task < 0 || e.Task >= len(in.Tasks) {
				t.Fatalf("completion for out-of-range global task %d", e.Task)
			}
			if completions[e.Task]++; completions[e.Task] > 1 {
				t.Fatalf("task %d completed twice on the merged stream", e.Task)
			}
		case "platform_done":
			platformDone++
		}
	}
}

// TestClusterRedirectSelfHeal boots a 2-node cluster and routes through a
// client whose tile table is deliberately wrong for every tile: each
// operation first hits the wrong node, receives the typed 421 redirect, and
// self-heals. The full stream must still complete, and direct misrouted
// calls must surface RedirectError with the true owner.
func TestClusterRedirectSelfHeal(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	f := newCluster(t, in, 2, 1, ltc.AAM, 42)

	// Direct single check-in to the wrong node: typed redirect, Index -1.
	var probe ltc.Worker
	found := false
	for _, w := range in.Workers {
		if f.topo.NodeFor(w.Loc) == 1 {
			probe, found = w, true
			break
		}
	}
	if !found {
		t.Fatal("no worker routes to node 1")
	}
	_, err := f.cc.Node(0).CheckIn(FromWorker(probe))
	var re *RedirectError
	if !errors.As(err, &re) || re.Owner != 1 || re.Index != -1 {
		t.Fatalf("misrouted check-in: got %v, want RedirectError{Owner: 1, Index: -1}", err)
	}

	// Direct misrouted batch: the redirect names the offending offset and
	// nothing is ingested (all-or-nothing ownership).
	var batch []Worker
	for _, w := range in.Workers {
		if f.topo.NodeFor(w.Loc) == 0 && len(batch) < 2 {
			batch = append(batch, FromWorker(w))
		}
	}
	batch = append(batch, FromWorker(probe))
	_, _, err = f.cc.Node(0).CheckInBatch(batch)
	if !errors.As(err, &re) || re.Owner != 1 || re.Index != len(batch)-1 {
		t.Fatalf("misrouted batch: got %v, want RedirectError{Owner: 1, Index: %d}", err, len(batch)-1)
	}
	st, err := f.cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkersSeen != 0 {
		t.Fatalf("redirected requests ingested %d workers", st.WorkersSeen)
	}

	// A client with an entirely wrong table: every owner rotated. Each first
	// contact per tile redirects once, heals, and the run still completes.
	bad := *f.topo
	bad.TileNode = make([]int, len(f.topo.TileNode))
	for i, n := range f.topo.TileNode {
		bad.TileNode[i] = (n + 1) % f.topo.Nodes
	}
	cc, err := NewClusterClient(f.urls, &bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.Workers {
		if cc.Complete() {
			break
		}
		rec, err := cc.CheckIn(FromWorker(w))
		if err != nil {
			t.Fatalf("worker %d through stale table: %v", w.Index, err)
		}
		if rec.Worker != w.Index {
			t.Fatalf("receipt echoes worker %d, fed %d", rec.Worker, w.Index)
		}
	}
	final, err := cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Resolved != len(in.Tasks) {
		t.Fatalf("self-healed run incomplete: %+v", final)
	}
}

// TestClusterPostRetire pins cluster-global task-ID translation for the
// dynamic lifecycle: posted tasks get owner-recoverable IDs from the
// node-interleaved progression, events carry the global ID, and retires
// route by ID arithmetic (posted) or redirect-following (initial, unsynced
// client).
func TestClusterPostRetire(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	f := newCluster(t, in, 2, 1, ltc.AAM, 42)
	if err := f.syncNow(t); err != nil {
		t.Fatal(err)
	}

	// Post at a location owned by node 1: the ID must come from node 1's
	// progression and be invertible without any lookup.
	var loc geo.Point
	found := false
	for _, task := range in.Tasks {
		if f.topo.NodeFor(task.Loc) == 1 {
			loc, found = task.Loc, true
			break
		}
	}
	if !found {
		t.Fatal("no task owned by node 1")
	}
	id, err := f.cc.PostTask(loc.X, loc.Y)
	if err != nil {
		t.Fatal(err)
	}
	if id < f.topo.TotalTasks {
		t.Fatalf("posted ID %d inside the initial range", id)
	}
	if n, k, err := f.topo.PostedOwner(id); err != nil || n != 1 || k != 0 {
		t.Fatalf("PostedOwner(%d) = (%d, %d, %v), want (1, 0)", id, n, k, err)
	}

	// The node's event log carries the translated global ID.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stream := f.cc.OpenClusterEvents(ctx)
	defer stream.Close()
	for {
		e, err := stream.Next()
		if err != nil {
			t.Fatalf("merged stream: %v", err)
		}
		if e.Kind == "task_posted" {
			if e.Task != id || e.Node != 1 {
				t.Fatalf("task_posted carried (task %d, node %d), want (%d, 1)", e.Task, e.Node, id)
			}
			break
		}
	}

	if err := f.cc.RetireTask(id); err != nil {
		t.Fatalf("retire posted task: %v", err)
	}
	// Retiring an ID the arithmetic assigns to node 0 that node 0 never
	// posted is a plain 404, not a redirect.
	if err := f.cc.RetireTask(f.topo.PostedGlobalID(0, 99)); err == nil || errors.As(err, new(*RedirectError)) {
		t.Fatalf("unknown posted ID: got %v, want a plain not-found error", err)
	}

	// An unsynced client retires an initial task by redirect-following.
	fresh, err := NewClusterClient(f.urls, f.topo)
	if err != nil {
		t.Fatal(err)
	}
	var initial int
	for gid := range in.Tasks {
		if int(f.split.OwnerOf[gid]) == 1 {
			initial = gid
			break
		}
	}
	if err := fresh.RetireTask(initial); err != nil {
		t.Fatalf("retire initial task %d unsynced: %v", initial, err)
	}
}

// TestClusterZeroTileNode: a topology can assign a node no tiles at all
// (fewer task tiles than nodes). Such a node must boot platform-less, serve
// trivially-done stats, redirect everything, stream no events — and the
// cluster as a whole must still complete with exactly one platform_done.
func TestClusterZeroTileNode(t *testing.T) {
	in := &ltc.Instance{Epsilon: 0.1, K: 2, Model: ltc.SigmoidDistance{DMax: 30}}
	for i := 0; i < 3; i++ {
		in.Tasks = append(in.Tasks, ltc.Task{ID: ltc.TaskID(i), Loc: geo.Point{X: 5, Y: 5}})
	}
	for i := 1; i <= 60; i++ {
		in.Workers = append(in.Workers, ltc.Worker{Index: i, Loc: geo.Point{X: 5, Y: 5}, Acc: 0.95})
	}
	f := newCluster(t, in, 3, 1, ltc.AAM, 1)
	if f.plats[1] != nil || f.plats[2] != nil {
		t.Fatal("zero-tile nodes must boot without a platform")
	}
	if err := f.syncNow(t); err != nil {
		t.Fatal(err)
	}

	// The empty node reports trivially-done stats and owns nothing.
	st1, err := f.cc.Node(1).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Done || st1.Tasks != 0 || st1.WorkersSeen != 0 {
		t.Fatalf("zero-tile node stats: %+v", st1)
	}
	var info ClusterInfo
	if err := f.cc.Node(1).doJSON(http.MethodGet, "/cluster/info", nil, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Tasks) != 0 || info.Node != 1 {
		t.Fatalf("zero-tile node info: %+v", info)
	}

	// Everything it receives redirects to the single tile owner.
	var re *RedirectError
	if _, err := f.cc.Node(1).CheckIn(FromWorker(in.Workers[0])); !errors.As(err, &re) || re.Owner != 0 {
		t.Fatalf("zero-tile check-in: got %v, want redirect to node 0", err)
	}
	if _, err := f.cc.Node(1).PostTask(5, 5); !errors.As(err, &re) || re.Owner != 0 {
		t.Fatalf("zero-tile post: got %v, want redirect to node 0", err)
	}
	// A posted-range ID arithmetically owned by the empty node is a 404 —
	// the node never posted anything.
	if err := f.cc.RetireTask(f.topo.PostedGlobalID(1, 0)); err == nil || errors.As(err, &re) {
		t.Fatalf("retire on empty node: got %v, want a plain not-found error", err)
	}

	// The cluster still completes, with exactly one platform_done.
	for _, w := range in.Workers {
		if f.cc.Complete() {
			break
		}
		if _, err := f.cc.CheckIn(FromWorker(w)); err != nil {
			t.Fatal(err)
		}
	}
	if !f.cc.Complete() {
		t.Fatal("cluster did not complete")
	}
	fold, err := f.cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !fold.Done || fold.Resolved != 3 || fold.Total != 3 {
		t.Fatalf("folded stats: %+v", fold)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stream := f.cc.OpenClusterEvents(ctx)
	defer stream.Close()
	completions, platformDone := 0, 0
	for platformDone < 1 || completions < 3 {
		e, err := stream.Next()
		if err != nil {
			t.Fatalf("merged stream: %v (%d completions, %d platform_done)", err, completions, platformDone)
		}
		if e.Node != 0 {
			t.Fatalf("event from node %d, only node 0 owns tasks", e.Node)
		}
		switch e.Kind {
		case "task_completed":
			completions++
		case "platform_done":
			platformDone++
		}
	}
}

// eventNode is one node kind serving a whole instance's platform, as the
// event-log tests drive it: the plain gateway, or the only node of a
// one-node cluster, which owns every location.
type eventNode struct {
	name   string
	plat   *ltc.Platform
	client *Client
}

// eventNodes boots both node kinds over in, one platform each.
func eventNodes(t *testing.T, in *ltc.Instance, opts ...ltc.Option) []eventNode {
	t.Helper()
	plat, err := ltc.NewPlatform(in, ltc.AAM, append([]ltc.Option{ltc.WithShards(1), ltc.WithSeed(42)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plat.Close() })
	srv := httptest.NewServer(NewHandler(plat, ltc.AAM, 1))
	t.Cleanup(srv.Close)
	f := newCluster(t, in, 1, 1, ltc.AAM, 42, opts...)
	return []eventNode{
		{name: "gateway", plat: plat, client: &Client{Base: srv.URL, HTTP: srv.Client()}},
		{name: "cluster-node", plat: f.plats[0], client: f.cc.Node(0)},
	}
}

// TestClusterEventLogResume pins the ?since= contract on both node kinds:
// the node's recorded log replays from any per-node sequence number, so a
// reconnecting subscriber resumes exactly where it folded off.
func TestClusterEventLogResume(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	for _, n := range eventNodes(t, in) {
		t.Run(n.name, func(t *testing.T) {
			for _, w := range in.Workers {
				if n.plat.Done() {
					break
				}
				if _, err := n.client.CheckIn(FromWorker(w)); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Count the full log first.
			full, err := n.client.OpenEventsSince(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = full.Close() }()
			total := uint64(0)
			for {
				e, err := full.Next()
				if err != nil {
					t.Fatal(err)
				}
				if e.Seq != total+1 {
					t.Fatalf("log replay not dense: seq %d after %d", e.Seq, total)
				}
				total = e.Seq
				if e.Kind == "platform_done" {
					break
				}
			}
			if total < 3 {
				t.Fatalf("log too short to test resume: %d events", total)
			}
			// Resume mid-log: the first replayed event is exactly since+1.
			resume, err := n.client.OpenEventsSince(ctx, total/2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resume.Close() }()
			e, err := resume.Next()
			if err != nil {
				t.Fatal(err)
			}
			if e.Seq != total/2+1 {
				t.Fatalf("resume at %d delivered seq %d, want %d", total/2, e.Seq, total/2+1)
			}
			// Resuming at the log's end follows the live stream: a post's
			// task_posted is the next event.
			live, err := n.client.OpenEventsSince(ctx, total)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = live.Close() }()
			if _, err := n.client.PostTask(in.Tasks[0].Loc.X, in.Tasks[0].Loc.Y); err != nil {
				t.Fatal(err)
			}
			if e, err := live.Next(); err != nil || e.Seq != total+1 || e.Kind != "task_posted" {
				t.Fatalf("live event %+v, %v; want task_posted at seq %d", e, err, total+1)
			}
			// A since ahead of the log is a 400, not a stream that waits.
			if _, err := n.client.OpenEventsSince(ctx, total+2); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("since ahead of the log: %v, want HTTP 400", err)
			}
		})
	}
}

// TestClusterEventLogLossless: on both node kinds the log is written by the
// publisher, so no burst can leave a hole in it. The platform's
// subscriptions hold one event each, and batches complete many tasks per
// call; /events?since=0 still replays Seq 1..n without a gap, one
// task_completed per task, and ends in platform_done.
func TestClusterEventLogLossless(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	for _, n := range eventNodes(t, in, ltc.WithEventBuffer(1)) {
		t.Run(n.name, func(t *testing.T) {
			const batch = 256
			mostPerCall := 0
			for i := 0; i < len(in.Workers) && !n.plat.Done(); i += batch {
				ws := make([]Worker, 0, batch)
				for _, w := range in.Workers[i:min(i+batch, len(in.Workers))] {
					ws = append(ws, FromWorker(w))
				}
				recs, _, err := n.client.CheckInBatch(ws)
				if err != nil {
					t.Fatal(err)
				}
				completed := 0
				for _, rec := range recs {
					for _, g := range rec.Assignments {
						if g.Completed {
							completed++
						}
					}
				}
				mostPerCall = max(mostPerCall, completed)
			}
			if !n.plat.Done() || mostPerCall < 8 {
				t.Fatalf("done %v, at most %d completions per call; want a finished run with bursts of ≥ 8", n.plat.Done(), mostPerCall)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			st, err := n.client.OpenEventsSince(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st.Close() }()
			completed := make(map[int]bool)
			for seq := uint64(1); ; seq++ {
				e, err := st.Next()
				if err != nil {
					t.Fatalf("replay ended at seq %d before platform_done: %v", seq, err)
				}
				if e.Seq != seq {
					t.Fatalf("replay read seq %d, want %d", e.Seq, seq)
				}
				if e.Kind == "task_completed" {
					if completed[e.Task] {
						t.Fatalf("task %d completed twice", e.Task)
					}
					completed[e.Task] = true
				}
				if e.Kind == "platform_done" {
					break
				}
			}
			if len(completed) != len(in.Tasks) {
				t.Fatalf("replay completed %d tasks, want %d", len(completed), len(in.Tasks))
			}
		})
	}
}

// TestWaitReadyBackoff: the readiness probe retries through transient
// failures with the capped jittered schedule and honours cancellation.
func TestWaitReadyBackoff(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "booting", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, Stats{})
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n < 3 {
		t.Fatalf("probe succeeded after %d calls, want ≥ 3", n)
	}

	// A dead endpoint: WaitReady must return the context's error promptly,
	// wrapping the last probe failure.
	dead := &Client{Base: "http://127.0.0.1:1"}
	shortCtx, cancelShort := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelShort()
	if err := dead.WaitReady(shortCtx); err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("dead endpoint: got %v", err)
	}

	// The schedule: exponential from 25ms, capped at 1s, jittered ±25%.
	for attempt := 0; attempt < 12; attempt++ {
		base := min(25*time.Millisecond<<uint(min(attempt, 6)), time.Second)
		d := backoffDelay(attempt)
		if d < time.Duration(float64(base)*0.75) || d > time.Duration(float64(base)*1.25) {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d,
				time.Duration(float64(base)*0.75), time.Duration(float64(base)*1.25))
		}
	}
}

// TestClusterClientValidation covers construction and sync failure modes:
// URL/topology arity, shuffled node URLs, and fingerprint mismatches.
func TestClusterClientValidation(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	f := newCluster(t, in, 2, 1, ltc.AAM, 42)
	if _, err := NewClusterClient(f.urls[:1], f.topo); err == nil {
		t.Fatal("URL/topology arity mismatch must fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Shuffled URLs: node identity check fails.
	swapped, err := NewClusterClient([]string{f.urls[1], f.urls[0]}, f.topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swapped.Sync(ctx); err == nil || !strings.Contains(err.Error(), "shuffled") {
		t.Fatalf("shuffled URLs: got %v", err)
	}

	// A topology with a different fingerprint (different workload flags).
	other := tableIV(t, 0.02, 42)
	otherTopo, err := cluster.Build(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := NewClusterClient(f.urls, otherTopo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatched.Sync(ctx); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch: got %v", err)
	}
}

// TestClusterStreamReconnect: killing a node's connections mid-stream must
// not break the merged sequence — the supervisor reconnects with ?since=
// and the fold continues without gaps or duplicates.
func TestClusterStreamReconnect(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	topo, err := cluster.Build(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := ltc.NewPlatform(split.Subs[0].In, ltc.AAM, ltc.WithShards(1), ltc.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = plat.Close() }()
	cs, err := NewClusterServer(plat, ltc.AAM, 1, topo, 0, split)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	srv := httptest.NewServer(cs.Handler())
	defer srv.Close()
	cc, err := NewClusterClient([]string{srv.URL}, topo)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stream := cc.OpenClusterEvents(ctx)
	defer stream.Close()

	// Feed half the stream, drop every open connection, feed the rest: the
	// subscriber must still see one dense cluster sequence covering every
	// completion exactly once.
	half := len(in.Workers) / 2
	feed := func(ws []ltc.Worker) {
		for _, w := range ws {
			if plat.Done() {
				return
			}
			if _, err := cc.CheckIn(FromWorker(w)); err != nil {
				t.Fatalf("worker %d: %v", w.Index, err)
			}
		}
	}
	feed(in.Workers[:half])
	srv.CloseClientConnections()
	feed(in.Workers[half:])
	if !plat.Done() {
		t.Fatal("platform incomplete")
	}

	completions := make(map[int]int)
	var lastSeq uint64
	for {
		e, err := stream.Next()
		if err != nil {
			t.Fatalf("merged stream: %v", err)
		}
		if e.ClusterSeq != lastSeq+1 {
			t.Fatalf("cluster sequence not dense across reconnect: %d after %d", e.ClusterSeq, lastSeq)
		}
		lastSeq = e.ClusterSeq
		if e.Kind == "task_completed" {
			if completions[e.Task]++; completions[e.Task] > 1 {
				t.Fatalf("task %d delivered twice across reconnect", e.Task)
			}
		}
		if e.Kind == "platform_done" {
			break
		}
	}
	if len(completions) != len(in.Tasks) {
		t.Fatalf("%d/%d completions across reconnect", len(completions), len(in.Tasks))
	}
}
