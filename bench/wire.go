package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/httpapi"
)

// wireRig serves one platform (wire-batch) or a three-node cluster
// (wire-cluster) on 127.0.0.1 listeners inside this process and drives it
// through the typed HTTP clients. Each feeder owns one client and one
// transport — one keep-alive connection per node — and the subscriber owns a
// third for its SSE stream(s).
type wireRig struct {
	spec *workloadSpec
	in   *inputs
	tr   *tracer
	tw   *twin
	k    int

	plats   []*ltc.Platform // per node; nil for a node owning no tasks
	servers []*http.Server
	served  sync.WaitGroup
	cluster []*httpapi.ClusterServer
	topo    *cluster.Topology
	split   *cluster.Split
	urls    []string

	conns   [feeders]*feederConn
	subHTTP *http.Client
	cancel  context.CancelFunc
	stream  *httpapi.EventStream   // wire-batch
	merged  *httpapi.ClusterStream // wire-cluster
	direct  *directStreams         // traced wire-cluster only

	overK   atomic.Int64
	expired int // tasks retired by the end-of-stream expiry
	statsNs []int64
	// handlerStart[i] is when the handler of the call carrying worker i
	// started (traced passes), for the SSE lag.
	handlerStart []int64
}

// feederConn is one feeder's client-side state. Its fields are touched only
// by the feeder's goroutine, except slot, which the server side fills.
type feederConn struct {
	g         int
	http      *http.Client
	single    *httpapi.Client
	routed    *httpapi.ClusterClient
	op        *opTrace // current traced operation, nil when untraced
	clientIdx int      // index of the current httpapi.client_call span
	handler   int      // index of the last httpapi.handler span, -1 if none
	n         int      // workers carried by the current call
	reqBytes  int64
	respBytes int64
	requests  int64
	redirects int64
	slot      handlerSlot
}

// handlerSlot hands the server-side handler span of a feeder's request back
// to that feeder.
type handlerSlot struct {
	mu         sync.Mutex
	start, dur int64
	ok         bool
}

// opHeader marks a traced request with its feeder, so the wrapping handler
// can hand its span to the right slot.
const opHeader = "X-Bench-Feeder"

// tracedTransport wraps a feeder's RoundTripper: it times the round trip
// from request sent to response body fully read (the client's JSON decode
// then runs on memory, so client codec time is the call minus this span),
// and collects the handler span the server side left in the feeder's slot.
type tracedTransport struct {
	base http.RoundTripper
	c    *feederConn
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := t.c
	if c.op == nil {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.Itoa(c.g))
	a := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	b := t.tr.now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	rt := c.op.add(spRoundTrip, c.clientIdx, false, c.n, a, b-a)
	c.slot.mu.Lock()
	if c.slot.ok {
		c.handler = c.op.add(spHandler, rt, false, c.n, c.slot.start, c.slot.dur)
		c.slot.ok = false
	}
	c.slot.mu.Unlock()
	c.requests++
	c.reqBytes += max(req.ContentLength, 0)
	c.respBytes += int64(len(body))
	if resp.StatusCode == http.StatusMisdirectedRequest {
		c.redirects++
	}
	return resp, nil
}

// tracedHandler wraps a node's http.Handler and times every request a
// traced feeder marked.
type tracedHandler struct {
	next  http.Handler
	tr    *tracer
	conns *[feeders]*feederConn
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil || g < 0 || g >= feeders {
		h.next.ServeHTTP(w, r)
		return
	}
	a := h.tr.now()
	h.next.ServeHTTP(w, r)
	b := h.tr.now()
	s := &h.conns[g].slot
	s.mu.Lock()
	s.start, s.dur, s.ok = a, b-a, true
	s.mu.Unlock()
}

// newTransport is a feeder's (or the subscriber's) private transport, so a
// pass's connections are its own and close with it.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
}

func newWireRig(in *inputs, tr *tracer) (_ *wireRig, err error) {
	spec := in.spec
	r := &wireRig{spec: spec, in: in, tr: tr, k: in.in.K}
	defer func() {
		if err != nil {
			r.teardown()
		}
	}()
	if tr != nil {
		r.handlerStart = make([]int64, len(in.in.Workers))
	}
	for g := range r.conns {
		r.conns[g] = &feederConn{g: g, handler: -1}
	}
	serve := func(h http.Handler) error {
		if tr != nil {
			h = &tracedHandler{next: h, tr: tr, conns: &r.conns}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: h}
		r.servers = append(r.servers, srv)
		r.urls = append(r.urls, "http://"+ln.Addr().String())
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed at teardown
		}()
		return nil
	}

	if spec.Nodes == 0 {
		p, err := ltc.NewPlatform(in.in, ltc.AAM, platformOptions(spec, len(in.in.Workers))...)
		if err != nil {
			return nil, err
		}
		r.plats = []*ltc.Platform{p}
		if err := serve(httpapi.NewHandler(p, ltc.AAM, spec.Shards)); err != nil {
			return nil, err
		}
	} else {
		if r.topo, err = cluster.Build(in.in, spec.Nodes); err != nil {
			return nil, err
		}
		if r.split, err = cluster.SplitInstance(in.in, r.topo); err != nil {
			return nil, err
		}
		r.plats = make([]*ltc.Platform, spec.Nodes)
		for n, sub := range r.split.Subs {
			if sub != nil {
				if r.plats[n], err = ltc.NewPlatform(sub.In, ltc.AAM, platformOptions(spec, 0)...); err != nil {
					return nil, err
				}
			}
			cs, err := httpapi.NewClusterServer(r.plats[n], ltc.AAM, spec.Shards, r.topo, n, r.split)
			if err != nil {
				return nil, err
			}
			r.cluster = append(r.cluster, cs)
			if err := serve(cs.Handler()); err != nil {
				return nil, err
			}
		}
	}

	for _, c := range r.conns {
		var rt http.RoundTripper = newTransport()
		if tr != nil {
			rt = &tracedTransport{base: rt, c: c, tr: tr}
		}
		c.http = &http.Client{Transport: rt}
		if spec.Nodes == 0 {
			c.single = &httpapi.Client{Base: r.urls[0], HTTP: c.http}
			continue
		}
		if c.routed, err = httpapi.NewClusterClient(r.urls, r.topo); err != nil {
			return nil, err
		}
		for n := 0; n < c.routed.Nodes(); n++ {
			c.routed.Node(n).HTTP = c.http
		}
	}

	// Open the subscription last: when this returns the platform is ready
	// for its first check-in and a requester is listening.
	r.subHTTP = &http.Client{Transport: newTransport()}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	if spec.Nodes == 0 {
		sub := &httpapi.Client{Base: r.urls[0], HTTP: r.subHTTP}
		if r.stream, err = sub.OpenEvents(ctx); err != nil {
			return nil, err
		}
	} else {
		sub, err := httpapi.NewClusterClient(r.urls, r.topo)
		if err != nil {
			return nil, err
		}
		for n := 0; n < sub.Nodes(); n++ {
			sub.Node(n).HTTP = r.subHTTP
		}
		if tr != nil {
			r.direct = openDirectStreams(ctx, sub, len(in.in.Tasks), tr)
		}
		r.merged = sub.OpenClusterEvents(ctx)
	}
	if tr != nil {
		if r.tw, err = newTwin(in, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// accepted audits one receipt's grants against K and returns 1 if the
// platform took the check-in, 0 if a node that had already completed
// bounced it (200 with "bounced":true — the wire form of ErrPlatformDone).
func (r *wireRig) accepted(rec *httpapi.Receipt) int {
	if len(rec.Assignments) > r.k {
		r.overK.Add(1)
	}
	if rec.Bounced {
		return 0
	}
	return 1
}

func (r *wireRig) feed(g, i, j int, op *opTrace) (n int, done bool, err error) {
	c := r.conns[g]
	var a int64
	if op != nil {
		c.op, c.n, c.handler = op, j-i, -1
		a = r.tr.now()
		c.clientIdx = op.add(spClientCall, 0, false, j-i, a, 0)
	}
	if c.single != nil {
		var recs []httpapi.Receipt
		recs, done, err = c.single.CheckInBatch(r.in.wire[i:j])
		for k := range recs {
			n += r.accepted(&recs[k])
		}
	} else {
		var rec httpapi.Receipt
		rec, err = c.routed.CheckIn(r.in.wire[i])
		if err == nil {
			n, done = r.accepted(&rec), c.routed.Complete()
		}
	}
	if op != nil {
		op.spans[c.clientIdx].Dur = r.tr.now() - a
		if c.handler >= 0 {
			for k := i; k < j; k++ {
				r.handlerStart[k] = op.spans[c.handler].Start
			}
		}
		c.op = nil
	}
	return n, done, err
}

// finish applies the end-of-stream expiry (see libRig.finish) through the
// front door: DELETE /tasks/{id} for every task still open.
func (r *wireRig) finish() error {
	for n, p := range r.plats {
		if p == nil || p.Done() {
			continue
		}
		for _, st := range p.TaskStatuses() {
			if st.Completed || st.Retired {
				continue
			}
			var err error
			if r.spec.Nodes == 0 {
				err = r.conns[0].single.RetireTask(int(st.ID))
			} else {
				err = r.conns[0].routed.RetireTask(int(r.split.Subs[n].Global[st.ID]))
			}
			if err != nil {
				return err
			}
			r.expired++
		}
	}
	return nil
}

func (r *wireRig) shadow(g, i, j int, op *opTrace) {
	c := r.conns[g]
	parent := c.handler
	if parent < 0 {
		parent = 0
	}
	node := 0
	if r.topo != nil {
		node = r.tw.route(op, c.clientIdx, r.in.in.Workers[i].Loc)
	}
	r.tw.shadowWorkers(op, parent, node, r.in.in.Workers[i:j])
}

func (r *wireRig) nextEvent() (event, bool) {
	if r.stream != nil {
		e, err := r.stream.Next()
		if err != nil {
			return event{}, false
		}
		return event{kind: kindOf(e.Kind), task: e.Task, worker: e.Worker, postIndex: e.PostIndex, seq: e.Seq}, true
	}
	e, err := r.merged.Next()
	if err != nil {
		return event{}, false
	}
	return event{
		kind: kindOf(e.Kind), task: e.Task, worker: e.Worker, postIndex: e.PostIndex,
		node: e.Node, seq: e.Seq, clusterSeq: e.ClusterSeq,
	}, true
}

// final reads the drained state the way a remote operator would — GET
// /stats through the client — and, because the platforms live in this
// process, their per-task credit and status as well.
func (r *wireRig) final() (*finalState, error) {
	if r.spec.Nodes == 0 {
		t0 := time.Now()
		st, err := r.conns[0].single.Stats()
		r.statsNs = append(r.statsNs, int64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		fs := platformFinal(r.plats[0])
		fs.overK = int(r.overK.Load())
		if st.Done != fs.done || st.Latency != fs.latency || st.Resolved != fs.resolved || st.Total != fs.total {
			return nil, fmt.Errorf("/stats (done=%v latency=%d %d/%d) disagrees with the platform (done=%v latency=%d %d/%d)",
				st.Done, st.Latency, st.Resolved, st.Total, fs.done, fs.latency, fs.resolved, fs.total)
		}
		return fs, nil
	}
	t0 := time.Now()
	st, err := r.conns[0].routed.Stats()
	if err != nil {
		return nil, err
	}
	r.statsNs = append(r.statsNs, int64(time.Since(t0))/int64(len(st.Nodes))) // one GET per node
	fs := &finalState{
		done: st.Done, resolved: st.Resolved, total: st.Total, latency: st.Latency,
		workersSeen: st.WorkersSeen, tasks: make([]taskFinal, len(r.in.in.Tasks)),
		overK: int(r.overK.Load()),
	}
	for n, p := range r.plats {
		if p == nil {
			continue
		}
		fs.doneNotices++
		nf := platformFinal(p)
		for local, t := range nf.tasks {
			fs.tasks[r.split.Subs[n].Global[local]] = t
		}
	}
	return fs, nil
}

func (r *wireRig) extras(l *ledger) rigExtras {
	x := rigExtras{statsNs: r.statsNs, lifecycleCalls: r.expired}
	if r.tr != nil {
		x.sseLagNs = r.sseLags(l)
		if r.direct != nil {
			x.mergeLagNs = r.direct.mergeLags(l)
		}
	}
	total, busiest := 0, 0
	for _, p := range r.plats {
		if p != nil {
			seen := p.WorkersSeen()
			total += seen
			busiest = max(busiest, seen)
		}
	}
	if total > 0 && r.spec.Nodes > 0 {
		x.nodeShareMax = float64(busiest) / float64(total)
	}
	if len(r.plats) == 1 {
		x.imbalance, x.migrations = r.plats[0].Imbalance(), r.plats[0].Migrations()
	}
	for _, c := range r.conns {
		x.reqBytes += c.reqBytes
		x.respBytes += c.respBytes
		x.requests += c.requests
		x.redirects += c.redirects
	}
	return x
}

// sseLags returns, for every completion the ledger saw, the time from the
// start of the handler that carried the completing worker to the arrival of
// its SSE frame. Traced passes only.
func (r *wireRig) sseLags(l *ledger) []float64 {
	var out []float64
	for task, by := range l.completedBy {
		if by > 0 && int(by) <= len(r.handlerStart) && r.handlerStart[by-1] > 0 {
			out = append(out, float64(l.recvAt[task]-r.handlerStart[by-1]))
		}
	}
	return out
}

func (r *wireRig) teardown() {
	if r.cancel != nil {
		r.cancel()
	}
	if r.stream != nil {
		_ = r.stream.Close()
	}
	if r.merged != nil {
		r.merged.Close()
	}
	if r.direct != nil {
		r.direct.wait()
	}
	for _, c := range r.conns {
		if c != nil && c.http != nil {
			c.http.CloseIdleConnections()
		}
	}
	if r.subHTTP != nil {
		r.subHTTP.CloseIdleConnections()
	}
	for _, srv := range r.servers {
		_ = srv.Close()
	}
	r.served.Wait()
	for _, cs := range r.cluster {
		cs.Close()
	}
	for _, p := range r.plats {
		if p != nil {
			_ = p.Close() // always nil
		}
	}
	if r.tw != nil {
		r.tw.close()
	}
}

// directStreams subscribes to every node's own SSE stream beside the merged
// one (traced wire-cluster passes), so the time an event spends in the merge
// is the merged receive time minus the direct one.
type directStreams struct {
	at [][]atomic.Int64 // node → per-node seq−1 → receive time
	wg sync.WaitGroup
}

func openDirectStreams(ctx context.Context, cc *httpapi.ClusterClient, tasks int, tr *tracer) *directStreams {
	d := &directStreams{at: make([][]atomic.Int64, cc.Nodes())}
	for n := range d.at {
		d.at[n] = make([]atomic.Int64, tasks+8)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			st, err := cc.Node(n).OpenEventsSince(ctx, 0)
			if err != nil {
				return
			}
			defer func() { _ = st.Close() }()
			for {
				e, err := st.Next()
				if err != nil {
					return
				}
				if i := int(e.Seq) - 1; i >= 0 && i < len(d.at[n]) {
					d.at[n][i].Store(tr.now())
				}
			}
		}()
	}
	return d
}

func (d *directStreams) wait() { d.wg.Wait() }

// mergeLags pairs the merged stream's receive times with the direct ones.
func (d *directStreams) mergeLags(l *ledger) []float64 {
	var out []float64
	for n, recv := range l.nodeRecv {
		for i, t := range recv {
			if n < len(d.at) && i < len(d.at[n]) {
				if direct := d.at[n][i].Load(); direct > 0 && t >= direct {
					out = append(out, float64(t-direct))
				}
			}
		}
	}
	return out
}

// verify checks that the wire changed nothing about the assignment
// decisions an in-process platform makes on the same stream.
func (r *wireRig) verify(fed int) error {
	if r.spec.Nodes == 0 {
		ref, err := ltc.NewPlatform(r.in.in, ltc.AAM, platformOptions(r.spec, len(r.in.in.Workers))...)
		if err != nil {
			return err
		}
		defer func() { _ = ref.Close() }()
		ws := r.in.in.Workers
		for i := 0; i < len(ws) && !ref.Done(); i += r.spec.Batch {
			if _, err := ref.CheckInBatch(ws[i:min(i+r.spec.Batch, len(ws))]); err != nil && !errors.Is(err, ltc.ErrPlatformDone) {
				return err
			}
		}
		if got := r.plats[0].Latency(); got != ref.Latency() {
			return fmt.Errorf("HTTP-fed latency %d != in-process latency %d", got, ref.Latency())
		}
		return nil
	}
	// Cluster: every node must answer for the topology the clients route by,
	// and land on its in-process reference replay.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := r.conns[0].routed.Sync(ctx); err != nil {
		return fmt.Errorf("cluster sync: %w", err)
	}
	refs := make([]*ltc.Platform, len(r.plats))
	for n, sub := range r.split.Subs {
		if sub == nil {
			continue
		}
		ref, err := ltc.NewPlatform(sub.In, ltc.AAM, platformOptions(r.spec, 0)...)
		if err != nil {
			return err
		}
		defer func() { _ = ref.Close() }()
		refs[n] = ref
	}
	for _, w := range r.in.in.Workers[:fed] {
		if _, err := refs[r.topo.NodeFor(w.Loc)].CheckIn(w); err != nil && !errors.Is(err, ltc.ErrPlatformDone) {
			return err
		}
	}
	for n, ref := range refs {
		if ref == nil {
			continue
		}
		if got := r.plats[n].Latency(); got != ref.Latency() {
			return fmt.Errorf("node %d: HTTP-fed latency %d != in-process latency %d", n, got, ref.Latency())
		}
		if got := r.plats[n].WorkersSeen(); got != ref.WorkersSeen() {
			return fmt.Errorf("node %d: HTTP-fed workers_seen %d != in-process %d", n, got, ref.WorkersSeen())
		}
	}
	return nil
}
