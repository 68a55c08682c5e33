package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ltc"
	"ltc/internal/cluster"
)

// fakeNode serves a canned cluster-node surface for client failure-path
// tests: always-ready /stats plus whatever extra routes the caller wires.
func fakeNode(t *testing.T, wire func(*http.ServeMux)) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, Stats{})
	})
	if wire != nil {
		wire(mux)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func singleNodeTopo(t *testing.T) (*ltc.Instance, *cluster.Topology) {
	t.Helper()
	in := tableIV(t, 0.01, 42)
	topo, err := cluster.Build(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in, topo
}

// TestClusterServerValidation exercises every constructor rejection.
func TestClusterServerValidation(t *testing.T) {
	in, topo := singleNodeTopo(t)
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClusterServer(nil, ltc.AAM, 1, &cluster.Topology{}, 0, split); err == nil {
		t.Fatal("invalid topology accepted")
	}
	if _, err := NewClusterServer(nil, ltc.AAM, 1, topo, 5, split); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := NewClusterServer(nil, ltc.AAM, 1, topo, 0, &cluster.Split{}); err == nil {
		t.Fatal("mismatched split accepted")
	}
	// The node owns tasks but has no platform (or vice versa).
	if _, err := NewClusterServer(nil, ltc.AAM, 1, topo, 0, split); err == nil {
		t.Fatal("nil platform over a task-owning sub-instance accepted")
	}
	if _, err := NewClusterClient([]string{"http://x"}, &cluster.Topology{}); err == nil {
		t.Fatal("client over invalid topology accepted")
	}
}

// TestClusterServerInconsistentSplit: a topology that routes traffic to a
// node whose split gave it no platform is a deployment bug; the node must
// answer 500, never silently drop or misroute.
func TestClusterServerInconsistentSplit(t *testing.T) {
	in, topo := singleNodeTopo(t)
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	split.Subs[0] = nil // the inconsistency under test
	cs, err := NewClusterServer(nil, ltc.AAM, 1, topo, 0, split)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	srv := httptest.NewServer(cs.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}

	if _, err := c.CheckIn(FromWorker(in.Workers[0])); err == nil || !strings.Contains(err.Error(), "no platform") {
		t.Fatalf("check-in on platform-less owner: %v", err)
	}
	if _, _, err := c.CheckInBatch([]Worker{FromWorker(in.Workers[0])}); err == nil || !strings.Contains(err.Error(), "no platform") {
		t.Fatalf("batch on platform-less owner: %v", err)
	}
	// An empty batch carries no ownership claims and reports the node's
	// trivially-done state.
	if _, done, err := c.CheckInBatch(nil); err != nil || !done {
		t.Fatalf("empty batch: done=%v err=%v", done, err)
	}
	if _, err := c.postTask(in.Tasks[0].Loc.X, in.Tasks[0].Loc.Y); err == nil || !strings.Contains(err.Error(), "no platform") {
		t.Fatalf("post on platform-less owner: %v", err)
	}
	// Retire of a bad ID: negative is a 400 before any ownership logic.
	if err := c.RetireTask(-1); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("negative retire: %v", err)
	}
}

// TestClusterClientRedirectPathologies drives every redirect failure mode
// through fake nodes that misbehave: redirect loops, out-of-range owners,
// bad batch indices and unreadable 421 bodies.
func TestClusterClientRedirectPathologies(t *testing.T) {
	_, topo := singleNodeTopo(t)

	// A node that endlessly disowns everything back to itself.
	loop := fakeNode(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /checkin", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 0, -1, "loop")
		})
		mux.HandleFunc("POST /checkin/batch", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 0, 0, "loop")
		})
		mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 0, -1, "loop")
		})
		mux.HandleFunc("DELETE /tasks/{id}", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 0, -1, "loop")
		})
	})
	cc, err := NewClusterClient([]string{loop}, topo)
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{Index: 1, X: 1, Y: 1}
	if _, err := cc.CheckIn(w); err == nil || !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("check-in loop: %v", err)
	}
	if _, _, err := cc.CheckInBatch([]Worker{w}); err == nil || !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("batch loop: %v", err)
	}
	if _, err := cc.postTask(1, 1); err == nil || !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("post loop: %v", err)
	}
	if err := cc.RetireTask(0); err == nil || !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("retire loop: %v", err)
	}

	// A node that disowns to a node outside the cluster.
	rogue := fakeNode(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /checkin", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 7, -1, "rogue")
		})
		mux.HandleFunc("POST /checkin/batch", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 0, 9, "bad index") // index outside the run
		})
		mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 7, -1, "rogue")
		})
		mux.HandleFunc("DELETE /tasks/{id}", func(w http.ResponseWriter, _ *http.Request) {
			writeRedirect(w, 7, -1, "rogue")
		})
	})
	rc, err := NewClusterClient([]string{rogue}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.CheckIn(w); err == nil || !strings.Contains(err.Error(), "out-of-range node 7") {
		t.Fatalf("rogue check-in: %v", err)
	}
	if _, _, err := rc.CheckInBatch([]Worker{w}); err == nil || !strings.Contains(err.Error(), "bad index") {
		t.Fatalf("bad batch index: %v", err)
	}
	if _, err := rc.postTask(1, 1); err == nil || !strings.Contains(err.Error(), "out-of-range node 7") {
		t.Fatalf("rogue post: %v", err)
	}
	if err := rc.RetireTask(0); err == nil || !strings.Contains(err.Error(), "out-of-range node 7") {
		t.Fatalf("rogue retire: %v", err)
	}

	// A 421 whose body is not the redirect JSON.
	garbled := fakeNode(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /checkin", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusMisdirectedRequest)
			_, _ = w.Write([]byte("not json"))
		})
	})
	gc := &Client{Base: garbled}
	if _, err := gc.CheckIn(w); err == nil || !strings.Contains(err.Error(), "unreadable redirect body") {
		t.Fatalf("garbled 421: %v", err)
	}

	// RedirectError is a readable error in its own right.
	re := &RedirectError{Owner: 3, Index: -1, Msg: "elsewhere"}
	if msg := re.Error(); !strings.Contains(msg, "node 3") || !strings.Contains(msg, "elsewhere") {
		t.Fatalf("RedirectError message: %q", msg)
	}
}

// TestClusterSyncFailureModes: Sync must reject clusters whose nodes
// misdescribe the task space — wrong cluster size, out-of-range or
// double-claimed tasks, tasks no node owns, or nodes with no info route.
func TestClusterSyncFailureModes(t *testing.T) {
	in, topo := singleNodeTopo(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fp := topo.Fingerprint()
	allTasks := func() []int {
		ids := make([]int, len(in.Tasks))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}

	cases := []struct {
		name string
		info ClusterInfo
		want string
	}{
		{"wrong size", ClusterInfo{Node: 0, Nodes: 9, TotalTasks: topo.TotalTasks, Fingerprint: fp, Tasks: allTasks()}, "9-node cluster"},
		{"out of range", ClusterInfo{Node: 0, Nodes: 1, TotalTasks: topo.TotalTasks, Fingerprint: fp, Tasks: []int{topo.TotalTasks + 1}}, "out-of-range task"},
		{"double claim", ClusterInfo{Node: 0, Nodes: 1, TotalTasks: topo.TotalTasks, Fingerprint: fp, Tasks: append(allTasks(), 0)}, "claimed by two nodes"},
		{"uncovered", ClusterInfo{Node: 0, Nodes: 1, TotalTasks: topo.TotalTasks, Fingerprint: fp, Tasks: allTasks()[1:]}, "owned by no node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := fakeNode(t, func(mux *http.ServeMux) {
				mux.HandleFunc("GET /cluster/info", func(w http.ResponseWriter, _ *http.Request) {
					writeJSON(w, http.StatusOK, tc.info)
				})
			})
			cc, err := NewClusterClient([]string{url}, topo)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cc.Sync(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}

	// A gateway with no /cluster/info at all (e.g. a plain ltcd).
	plain := fakeNode(t, nil)
	cc, err := NewClusterClient([]string{plain}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Sync(ctx); err == nil {
		t.Fatal("plain gateway accepted as a cluster node")
	}
	// Stats against a vanished node surfaces the transport error.
	dead, err := NewClusterClient([]string{"http://127.0.0.1:1"}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Stats(); err == nil {
		t.Fatal("stats against a dead node succeeded")
	}
	shortCtx, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if _, err := dead.Sync(shortCtx); err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("sync against a dead node: %v", err)
	}
}

// TestClusterStreamGapIsFatal: a per-node sequence hole on the merged
// stream (an event irrecoverably lost) must surface as a hard error from
// Next, never as a silent skip; reconnect replays (duplicates) must fold
// away silently.
func TestClusterStreamGapIsFatal(t *testing.T) {
	_, topo := singleNodeTopo(t)
	send := func(w http.ResponseWriter, seqs ...uint64) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, seq := range seqs {
			_, _ = fmt.Fprintf(w, "event: task_completed\ndata: {\"seq\":%d,\"kind\":\"task_completed\",\"task\":0}\n\n", seq)
		}
		w.(http.Flusher).Flush()
	}
	gappy := fakeNode(t, func(mux *http.ServeMux) {
		mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
			send(w, 1, 3)
			<-r.Context().Done()
		})
	})
	cc, err := NewClusterClient([]string{gappy}, topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stream := cc.OpenClusterEvents(ctx)
	defer stream.Close()
	if e, err := stream.Next(); err != nil || e.ClusterSeq != 1 {
		t.Fatalf("first event: (%+v, %v)", e, err)
	}
	if _, err := stream.Next(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not fatal: %v", err)
	}

	// Duplicates — a reconnect replaying an already-folded event — are
	// folded away, and the stream ends with io.EOF on cancellation.
	dupy := fakeNode(t, func(mux *http.ServeMux) {
		mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
			send(w, 1, 1, 2)
			<-r.Context().Done()
		})
	})
	dc, err := NewClusterClient([]string{dupy}, topo)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithCancel(context.Background())
	defer dcancel()
	ds := dc.OpenClusterEvents(dctx)
	defer ds.Close()
	for want := uint64(1); want <= 2; want++ {
		e, err := ds.Next()
		if err != nil || e.ClusterSeq != want || e.Seq != want {
			t.Fatalf("event %d: (%+v, %v)", want, e, err)
		}
	}
}

// TestClusterFoldedPolling covers the folded polling view over a live
// cluster: Stats sums the per-node snapshots and is Done only once every
// node is.
func TestClusterFoldedPolling(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	f := newCluster(t, in, 2, 1, ltc.AAM, 42)
	if f.cc.Nodes() != 2 {
		t.Fatalf("Nodes() = %d", f.cc.Nodes())
	}
	st, err := f.cc.Stats()
	if err != nil || st.Done || st.Resolved != 0 || st.Total != len(in.Tasks) {
		t.Fatalf("fresh cluster: done=%v %d/%d err=%v", st.Done, st.Resolved, st.Total, err)
	}
	for _, w := range in.Workers {
		if f.cc.Complete() {
			break
		}
		if _, err := f.cc.CheckIn(FromWorker(w)); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = f.cc.Stats(); err != nil || !st.Done || st.Resolved != st.Total {
		t.Fatalf("finished cluster: done=%v %d/%d err=%v", st.Done, st.Resolved, st.Total, err)
	}
}

// TestClusterBatchRedirectHeal: a batched feed through a stale table heals
// mid-batch (the run re-splits from the healed worker) and still completes.
func TestClusterBatchRedirectHeal(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	f := newCluster(t, in, 2, 1, ltc.AAM, 42)
	bad := *f.topo
	bad.TileNode = make([]int, len(f.topo.TileNode))
	for i, n := range f.topo.TileNode {
		bad.TileNode[i] = (n + 1) % f.topo.Nodes
	}
	cc, err := NewClusterClient(f.urls, &bad)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 7
	for i := 0; i < len(in.Workers); i += batch {
		j := min(i+batch, len(in.Workers))
		chunk := make([]Worker, j-i)
		for k, w := range in.Workers[i:j] {
			chunk[k] = FromWorker(w)
		}
		_, done, err := cc.CheckInBatch(chunk)
		if err != nil {
			t.Fatalf("batch at %d: %v", i, err)
		}
		if done {
			break
		}
	}
	st, err := cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Resolved != len(in.Tasks) {
		t.Fatalf("batched self-healed run incomplete: %+v", st)
	}
	// A post through the stale table heals too.
	if _, err := cc.postTask(in.Tasks[0].Loc.X, in.Tasks[0].Loc.Y); err != nil {
		t.Fatalf("post through stale table: %v", err)
	}
}
