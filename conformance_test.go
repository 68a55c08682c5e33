package ltc_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/geo"
	"ltc/internal/httpapi"
)

// The conformance suite. The paper's online solvers are sequential — each
// worker's assignment depends on every earlier arrival — so every check-in
// front end must reproduce one sequential answer. frontEnds is the table of
// those front ends and conformance the one check body: each row is fed the
// same stream, and its receipts, final state and (in process) event
// sequence must equal the per-call Platform row's on the same layout. On
// the golden streams every row's rendered trace must also equal the bytes
// recorded in testdata/golden; regenerate them after an intentional
// behaviour change with
//
//	go test -run TestGoldenTraces -update
var update = flag.Bool("update", false, "rewrite the golden trace fixtures from the Session row")

// stream is one configuration the suite drives every row through.
type stream struct {
	in       *ltc.Instance
	algo     ltc.Algorithm
	seed     uint64
	shards   int
	balanced bool
	// steps is the lifecycle script; only the rows that can post and
	// retire (every Platform-backed one) run a stream that has one.
	steps []step
	// queueCap (when > 0) bounds every shard queue; flushEvery (when > 0)
	// makes the async row Flush after every flushEvery enqueues.
	queueCap, flushEvery int
	// layout, when non-nil, admits fewer shards than requested: a random
	// draw can leave a striped tile without a task, and the partitioner
	// collapses it. The first platform built records its shard count here
	// and every later row must build the same one. Nil keeps the fixed
	// streams at exactly the requested count.
	layout *int
}

// step posts a task at post (when non-nil), else retires task retire, once
// the stream's first at workers have been fed.
type step struct {
	at     int
	post   *geo.Point
	retire ltc.TaskID
}

// state is a front end's final state. Session and Solve observe less than
// a Platform: relLatency -1, total -1 and nil statuses mean "not observed".
type state struct {
	done                             bool
	latency, relLatency, workersSeen int
	resolved, total                  int
	statuses                         []ltc.TaskStatus
	credits                          []float64
	pairs                            []ltc.Assignment
}

// outcome is what one row observed of one stream.
type outcome struct {
	receipts []ltc.Receipt // one per ingested worker; nil when the row returns none
	events   []ltc.Event   // nil when the row does not subscribe
	// async marks the queued row: a worker enqueued before the drainer
	// published completion is ingested as a bounced straggler (WorkersSeen
	// may exceed the reference's), and drainers of different shards publish
	// in no fixed order (events compare as a multiset).
	async bool
	st    state
}

// feeder is a Platform-backed row's front end: feed ingests one segment of
// the stream (stopping once the platform is done) and returns its receipts,
// post and retire run one lifecycle step. The in-process rows also
// subscribe to the platform's events.
type feeder struct {
	feed   func(ws []ltc.Worker) []ltc.Receipt
	post   func(geo.Point)
	retire func(ltc.TaskID)
	sub    *ltc.Subscription
}

// frontEnd is one row of the table. Rows with start build a Platform for
// the stream and a front end over it; Session and Solve (run) have neither
// shards nor a lifecycle, so they run only one-shard streams without a
// script.
type frontEnd struct {
	name  string
	async bool
	run   func(*testing.T, stream) outcome
	start func(*testing.T, stream) (*ltc.Platform, feeder)
}

// frontEnds is the table. Its first row, per-call Platform.CheckIn, is the
// reference every other row is checked against: it runs every stream and
// observes everything. Session, which observes less, is checked against it
// like any other row, and records the golden fixtures under -update.
var frontEnds = []frontEnd{
	local("CheckIn", false, func(t *testing.T, _ stream, p *ltc.Platform) func([]ltc.Worker) []ltc.Receipt {
		return func(ws []ltc.Worker) []ltc.Receipt { return perCall(t, p.Done, p.CheckIn, ws) }
	}),
	{name: "Session", run: runSession},
	{name: "Solve", run: runSolve},
	batchRow(1), batchRow(7), batchRow(64), batchRow(0),
	local("CheckInAsync", true, func(t *testing.T, s stream, p *ltc.Platform) func([]ltc.Worker) []ltc.Receipt {
		enqueued := 0
		return func(ws []ltc.Worker) []ltc.Receipt {
			for _, w := range ws {
				if p.Done() {
					break
				}
				if err := p.CheckInAsync(w); err != nil {
					t.Fatal(err)
				}
				if enqueued++; s.flushEvery > 0 && enqueued%s.flushEvery == 0 {
					p.Flush()
				}
			}
			p.Flush() // also the barrier before every lifecycle step
			if seen := p.WorkersSeen(); seen != enqueued {
				t.Fatalf("%d workers arrived, %d enqueued", seen, enqueued)
			}
			return nil
		}
	}),
	gatewayRow("gateway-checkin", 1), gatewayRow("gateway-batch", 64),
	clusterRow("cluster-checkin", 1), clusterRow("cluster-batch", 7),
}

// TestGoldenTraces drives every row through the recorded fixtures: three
// Table IV shapes × LAF, AAM and Random on one shard. The streams request
// the balanced layout, which one shard must decline (the golden bytes are
// striped ones).
func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() ltc.WorkloadConfig
	}{
		{"tableiv-default-x001", func() ltc.WorkloadConfig {
			return ltc.DefaultWorkload().Scale(0.01) // 30 tasks, 400 workers
		}},
		{"tableiv-k4-eps014-x001", func() ltc.WorkloadConfig {
			c := ltc.DefaultWorkload().Scale(0.01)
			c.K, c.Epsilon, c.Seed = 4, 0.14, 2
			return c
		}},
		{"tableiv-uniform-x001", func() ltc.WorkloadConfig {
			c := ltc.DefaultWorkload().Scale(0.01)
			c.Accuracy = ltc.AccuracyDist{Kind: ltc.DistUniform, Mean: 0.86, Spread: 0.10}
			c.Seed = 3
			return c
		}},
	}
	for _, gc := range cases {
		in, err := gc.cfg().Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []ltc.Algorithm{ltc.LAF, ltc.AAM, ltc.RandomAssign} {
			name := fmt.Sprintf("%s-%s", gc.name, algo)
			t.Run(name, func(t *testing.T) {
				s := stream{in: in, algo: algo, seed: 7, shards: 1, balanced: true}
				path := filepath.Join("testdata", "golden", name+".trace")
				if *update {
					if err := os.WriteFile(path, trace(gc.name, s, runSession(t, s).st), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to record): %v", err)
				}
				conformance(t, s, func(t *testing.T, st state) {
					if got := trace(gc.name, s, st); !bytes.Equal(got, want) {
						t.Errorf("trace diverged from %s\n%s", path, firstDiff(want, got))
					}
				})
			})
		}
	}
}

// TestConformanceSharded drives the Platform-backed rows over four striped
// and four balanced shards of a hotspot workload, with posts and retires
// early in the stream.
func TestConformanceSharded(t *testing.T) {
	cfg := ltc.DefaultWorkload().Scale(0.02)
	cfg.Seed = 21
	sc, err := ltc.NewScenario(ltc.ScenarioHotspot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	posted := ltc.TaskID(len(in.Tasks)) // the first post's ID
	script := []step{
		{at: 40, post: &in.Workers[40].Loc},
		{at: 40, retire: 3},
		{at: 90, post: &in.Tasks[5].Loc},
		{at: 90, retire: posted},
	}
	for _, tc := range []struct {
		algo     ltc.Algorithm
		balanced bool
	}{{ltc.AAM, false}, {ltc.LAF, false}, {ltc.AAM, true}, {ltc.LAF, true}} {
		layout := "striped"
		if tc.balanced {
			layout = "balanced"
		}
		t.Run(fmt.Sprintf("%s-%s", layout, tc.algo), func(t *testing.T) {
			conformance(t, stream{in: in, algo: tc.algo, seed: 7, shards: 4, balanced: tc.balanced, steps: script}, nil)
		})
	}
}

// randomWorkload draws a small Table IV-shaped workload with random
// cardinalities. Instances need not be completable: every front end must
// agree on exhausted streams too.
func randomWorkload(rng *rand.Rand) ltc.WorkloadConfig {
	cfg := ltc.DefaultWorkload()
	cfg.NumTasks = 5 + rng.IntN(60)
	cfg.NumWorkers = 100 + rng.IntN(900)
	cfg.K = 1 + rng.IntN(6)
	cfg.Epsilon = 0.05 + rng.Float64()*0.2
	cfg.GridWidth = 100 + rng.Float64()*200
	cfg.GridHeight = 100 + rng.Float64()*200
	cfg.Seed = rng.Uint64()
	return cfg
}

// FuzzConformance drives every row through random instances, algorithms,
// layouts of one, two or four shards (or fewer, where a striped tile draws
// no task), queue capacities down to one slot and Flush barriers
// mid-stream.
func FuzzConformance(f *testing.F) {
	f.Add(uint64(1), uint64(42), uint8(0), uint8(1), uint8(7))
	f.Add(uint64(99), uint64(3), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(1234), uint64(77), uint8(0), uint8(255), uint8(255))
	f.Add(uint64(2026), uint64(7), uint8(1), uint8(3), uint8(40))
	f.Add(uint64(5), uint64(11), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(808), uint64(13), uint8(5), uint8(6), uint8(9))
	f.Fuzz(func(t *testing.T, genSeed, algoSeed uint64, layout, rawCap, rawFlush uint8) {
		rng := rand.New(rand.NewPCG(genSeed, genSeed^0x9e3779b9))
		in, err := randomWorkload(rng).Generate()
		if err != nil {
			t.Skip() // degenerate generator draw
		}
		conformance(t, stream{
			in:         in,
			algo:       []ltc.Algorithm{ltc.LAF, ltc.AAM, ltc.RandomAssign}[genSeed%3],
			seed:       algoSeed,
			shards:     []int{1, 2, 4}[layout%3],
			balanced:   layout&4 != 0,
			queueCap:   int(rawCap)%7 + 1,
			flushEvery: int(rawFlush)%64 + 1,
			layout:     new(int),
		}, nil)
	})
}

// conformance runs every row the stream admits as a subtest and checks it
// against the first row's outcome; golden, when non-nil, also checks each
// row's final state.
func conformance(t *testing.T, s stream, golden func(*testing.T, state)) {
	var ref outcome
	for i, fe := range frontEnds {
		if fe.run != nil && (s.shards != 1 || s.steps != nil) {
			continue
		}
		ok := t.Run(fe.name, func(t *testing.T) {
			var got outcome
			if fe.run != nil {
				got = fe.run(t, s)
			} else {
				got = runPlatform(t, s, fe)
			}
			if i == 0 {
				ref = got
			} else {
				check(t, ref, got)
			}
			if golden != nil {
				golden(t, got.st)
			}
		})
		if !ok && i == 0 {
			return // no reference to check the other rows against
		}
	}
}

// check fails unless got matches want on everything got observes.
func check(t *testing.T, want, got outcome) {
	t.Helper()
	if got.receipts != nil {
		if len(got.receipts) != len(want.receipts) {
			t.Fatalf("%d receipts, want %d", len(got.receipts), len(want.receipts))
		}
		for i, w := range want.receipts {
			g := got.receipts[i]
			if g.Worker != w.Worker || g.Shard != w.Shard || g.Done != w.Done || !slices.Equal(g.Assignments, w.Assignments) {
				t.Fatalf("receipt %d = %+v, want %+v", i, g, w)
			}
		}
	}
	if got.events != nil {
		we, ge := want.events, got.events
		if got.async {
			we, ge = unordered(we), unordered(ge)
		}
		same(t, "event", we, ge)
	}
	w, g := want.st, got.st
	if g.done != w.done || g.latency != w.latency {
		t.Fatalf("done=%v latency=%d, want done=%v latency=%d", g.done, g.latency, w.done, w.latency)
	}
	if g.workersSeen != w.workersSeen && !(got.async && g.workersSeen > w.workersSeen) {
		t.Fatalf("workers seen %d, want %d", g.workersSeen, w.workersSeen)
	}
	if g.relLatency >= 0 && g.relLatency != w.relLatency {
		t.Fatalf("relative latency %d, want %d", g.relLatency, w.relLatency)
	}
	if g.total >= 0 && (g.resolved != w.resolved || g.total != w.total) {
		t.Fatalf("progress %d/%d, want %d/%d", g.resolved, g.total, w.resolved, w.total)
	}
	if g.statuses != nil {
		same(t, "task status", w.statuses, g.statuses)
	}
	same(t, "credit", w.credits, g.credits)
	same(t, "arrangement pair", w.pairs, g.pairs)
}

// same reports the first position at which got departs from want.
func same[T comparable](t *testing.T, what string, want, got []T) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d %ss, want %d", len(got), what, len(want))
	}
}

// unordered drops the bus sequence numbers and sorts the events.
func unordered(es []ltc.Event) []ltc.Event {
	out := slices.Clone(es)
	for i := range out {
		out[i].Seq = 0
	}
	slices.SortFunc(out, func(a, b ltc.Event) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Task, b.Task), cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.PostIndex, b.PostIndex))
	})
	return out
}

func runSession(t *testing.T, s stream) outcome {
	sess, err := ltc.NewSession(s.in, s.algo, ltc.WithSeed(s.seed))
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{receipts: perCall(t, sess.Done, sess.Arrive, s.in.Workers)}
	o.st = state{done: sess.Done(), latency: sess.Latency(), relLatency: -1, workersSeen: sess.WorkersSeen(),
		credits: sess.Credits(nil), pairs: sess.Arrangement().Pairs}
	o.st.resolved, o.st.total = sess.Progress()
	return o
}

func runSolve(t *testing.T, s stream) outcome {
	res, err := ltc.Solve(s.in, s.algo, ltc.WithSeed(s.seed))
	if err != nil && !errors.Is(err, ltc.ErrIncomplete) {
		t.Fatal(err)
	}
	return outcome{st: state{done: res.Completed, latency: res.Latency, relLatency: -1, workersSeen: res.WorkersSeen,
		total: -1, credits: res.Arrangement.Accumulated, pairs: res.Arrangement.Pairs}}
}

// runPlatform feeds the row's front end segment by segment with the
// lifecycle steps between, then reads the final state off the platform.
func runPlatform(t *testing.T, s stream, fe frontEnd) outcome {
	p, f := fe.start(t, s)
	o := outcome{async: fe.async}
	if !fe.async {
		o.receipts = []ltc.Receipt{} // a row that fed nobody still answers for it
	}
	fed := 0
	for _, st := range s.steps {
		o.receipts = append(o.receipts, f.feed(s.in.Workers[fed:st.at])...)
		fed = st.at
		if st.post != nil {
			f.post(*st.post)
		} else {
			f.retire(st.retire)
		}
	}
	o.receipts = append(o.receipts, f.feed(s.in.Workers[fed:])...)
	if f.sub != nil {
		f.sub.Close()
		o.events = []ltc.Event{}
		for e := range f.sub.Events() {
			o.events = append(o.events, e)
		}
		if n := f.sub.Dropped(); n > 0 {
			t.Fatalf("subscription dropped %d events", n)
		}
	}
	o.st = state{done: p.Done(), latency: p.Latency(), relLatency: p.RelativeLatency(), workersSeen: p.WorkersSeen(),
		statuses: p.TaskStatuses(), credits: p.Credits(nil), pairs: p.Arrangement().Pairs}
	o.st.resolved, o.st.total = p.Progress()
	return o
}

// newPlatform builds the stream's Platform over in (the stream's instance,
// or a cluster node's share of it).
func newPlatform(t *testing.T, s stream, in *ltc.Instance) *ltc.Platform {
	opts := []ltc.Option{ltc.WithShards(s.shards), ltc.WithSeed(s.seed), ltc.WithEventBuffer(1 << 12)}
	if s.balanced {
		opts = append(opts, ltc.WithBalancedShards())
	}
	if s.queueCap > 0 {
		opts = append(opts, ltc.WithQueueCap(s.queueCap))
	}
	p, err := ltc.NewPlatform(in, s.algo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	want := s.shards
	if s.layout != nil {
		if *s.layout == 0 && p.Shards() <= s.shards {
			*s.layout = p.Shards()
		}
		want = *s.layout
	}
	if p.Shards() != want || p.Balanced() != (s.balanced && s.shards > 1) {
		t.Fatalf("layout: %d shards, balanced %v", p.Shards(), p.Balanced())
	}
	return p
}

// perCall feeds ws one check-in at a time until done reports completion.
func perCall(t *testing.T, done func() bool, checkIn func(ltc.Worker) (ltc.Receipt, error), ws []ltc.Worker) []ltc.Receipt {
	out := []ltc.Receipt{}
	for _, w := range ws {
		if done() {
			break
		}
		rec, err := checkIn(w)
		if err != nil {
			t.Fatal(err)
		}
		rec.Assignments = slices.Clone(rec.Assignments) // a Session reuses its grant buffer
		out = append(out, rec)
	}
	return out
}

// local is an in-process row: feed builds its front end over the
// stream's platform, which the row subscribes to and posts and retires on
// directly.
func local(name string, async bool, feed func(*testing.T, stream, *ltc.Platform) func([]ltc.Worker) []ltc.Receipt) frontEnd {
	return frontEnd{name: name, async: async, start: func(t *testing.T, s stream) (*ltc.Platform, feeder) {
		p := newPlatform(t, s, s.in)
		return p, feeder{
			feed: feed(t, s, p),
			post: func(loc geo.Point) {
				if _, err := p.PostTask(ltc.Task{Loc: loc}); err != nil {
					t.Fatal(err)
				}
			},
			retire: func(id ltc.TaskID) {
				if err := p.RetireTask(id); err != nil {
					t.Fatal(err)
				}
			},
			sub: p.Subscribe(),
		}
	}}
}

// batchRow is Platform.CheckInBatch in chunks of b workers, or of the whole
// segment when b is 0.
func batchRow(b int) frontEnd {
	name := "CheckInBatch-" + strconv.Itoa(b)
	if b == 0 {
		name = "CheckInBatch-all"
	}
	return local(name, false, func(t *testing.T, _ stream, p *ltc.Platform) func([]ltc.Worker) []ltc.Receipt {
		return func(ws []ltc.Worker) []ltc.Receipt {
			var out []ltc.Receipt
			for i := 0; i < len(ws) && !p.Done(); {
				j := len(ws)
				if b > 0 {
					j = min(i+b, len(ws))
				}
				recs, err := p.CheckInBatch(ws[i:j])
				if err != nil && !errors.Is(err, ltc.ErrPlatformDone) {
					t.Fatal(err)
				}
				out = append(out, recs...)
				i = j
			}
			return out
		}
	})
}

// wireClient is what the plain gateway's Client and the cluster's routing
// ClusterClient have in common.
type wireClient interface {
	CheckIn(httpapi.Worker) (httpapi.Receipt, error)
	CheckInBatch([]httpapi.Worker) ([]httpapi.Receipt, bool, error)
	RetireTask(id int) error
}

// serve puts h behind a test server and returns a client for it.
func serve(t *testing.T, h http.Handler) *httpapi.Client {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &httpapi.Client{Base: srv.URL, HTTP: srv.Client()}
}

// wire feeds c over HTTP, per call when batch is 1, else in chunks of
// batch; p is the platform behind the server, and posts go to POST /tasks
// at postBase. A cluster front end (topo non-nil) speaks cluster-global task
// IDs, which wire maps to and from p's own.
func wire(t *testing.T, p *ltc.Platform, c wireClient, postBase string, batch int, topo *cluster.Topology) feeder {
	return feeder{
		feed: func(ws []ltc.Worker) []ltc.Receipt {
			var out []ltc.Receipt
			for i := 0; i < len(ws) && !p.Done(); i += batch {
				var chunk []httpapi.Worker
				for _, w := range ws[i:min(i+batch, len(ws))] {
					chunk = append(chunk, httpapi.FromWorker(w))
				}
				var recs []httpapi.Receipt
				var err error
				if batch == 1 {
					recs = make([]httpapi.Receipt, 1)
					recs[0], err = c.CheckIn(chunk[0])
				} else {
					recs, _, err = c.CheckInBatch(chunk)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					rec := ltc.Receipt{Worker: r.Worker, Shard: r.Shard, Done: r.Done}
					for _, g := range r.Assignments {
						rec.Assignments = append(rec.Assignments, ltc.TaskGrant{Task: localID(topo, g.Task), Credit: g.Credit, Completed: g.Completed})
					}
					out = append(out, rec)
				}
			}
			return out
		},
		post: func(loc geo.Point) { postTask(t, postBase, loc) },
		retire: func(id ltc.TaskID) {
			if err := c.RetireTask(globalID(topo, id)); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// gatewayRow is the plain HTTP gateway (NewHandler) fed through its Client.
func gatewayRow(name string, batch int) frontEnd {
	return frontEnd{name: name, start: func(t *testing.T, s stream) (*ltc.Platform, feeder) {
		p := newPlatform(t, s, s.in)
		c := serve(t, httpapi.NewHandler(p, s.algo, s.shards))
		return p, wire(t, p, c, c.Base, batch, nil)
	}}
}

// clusterRow is a cluster whose one task-owning node holds the whole
// stream — a ClusterServer over the node's platform, the routing
// ClusterClient in front — so its receipts come back with task IDs
// translated from the node's local ones to cluster-global ones. The
// topology also declares a second node that owns no tiles and serves idle:
// with one node the translation is the identity, with two a posted task's
// global ID (TotalTasks + node + k·Nodes) is not its local one, so an
// untranslated ID shows.
func clusterRow(name string, batch int) frontEnd {
	return frontEnd{name: name, start: func(t *testing.T, s stream) (*ltc.Platform, feeder) {
		topo, err := cluster.Build(s.in, 1)
		if err != nil {
			t.Fatal(err)
		}
		topo.Nodes = 2
		split, err := cluster.SplitInstance(s.in, topo)
		if err != nil {
			t.Fatal(err)
		}
		// The node's share carries the stream's workers, so a balanced
		// layout samples the same load as the reference's.
		node := *split.Subs[0].In
		node.Workers = s.in.Workers
		p := newPlatform(t, s, &node)
		var urls []string
		for n, np := range []*ltc.Platform{p, nil} {
			cs, err := httpapi.NewClusterServer(np, s.algo, s.shards, topo, n, split)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cs.Close)
			urls = append(urls, serve(t, cs.Handler()).Base)
		}
		cc, err := httpapi.NewClusterClient(urls, topo)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := cc.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		// Node 0 owns every tile, so every post goes to it.
		return p, wire(t, p, cc, urls[0], batch, topo)
	}}
}

// postTask posts a task at loc through POST /tasks on the server at base.
func postTask(t *testing.T, base string, loc geo.Point) {
	body, err := json.Marshal(httpapi.TaskRequest{X: loc.X, Y: loc.Y})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /tasks: HTTP %d: %s", resp.StatusCode, msg)
	}
}

// globalID maps node 0's task ID to its cluster-global ID under topo (nil:
// no cluster, the same ID).
func globalID(topo *cluster.Topology, id ltc.TaskID) int {
	if topo == nil || int(id) < topo.TotalTasks {
		return int(id)
	}
	return topo.PostedGlobalID(0, int(id)-topo.TotalTasks)
}

// localID inverts globalID; an ID node 0 cannot have allocated maps to -1.
func localID(topo *cluster.Topology, g int) ltc.TaskID {
	if topo == nil || g < topo.TotalTasks {
		return ltc.TaskID(g)
	}
	if node, k, _ := topo.PostedOwner(g); node == 0 {
		return ltc.TaskID(topo.TotalTasks + k)
	}
	return -1
}

// trace renders a one-shard run in the fixture format: a header, one line
// per fed worker listing its granted tasks in assignment order, then done,
// latency and every task's credit as a hex float.
func trace(name string, s stream, st state) []byte {
	var b bytes.Buffer
	in := s.in
	fmt.Fprintf(&b, "# ltc golden trace\nworkload=%s algo=%s seed=%d\n", name, s.algo, s.seed)
	fmt.Fprintf(&b, "tasks=%d workers=%d k=%d epsilon=%s delta=%s\n", len(in.Tasks), len(in.Workers), in.K,
		strconv.FormatFloat(in.Epsilon, 'g', -1, 64), strconv.FormatFloat(in.Delta(), 'x', -1, 64))
	fed := len(in.Workers)
	if st.done {
		fed = st.latency
	}
	granted := make([][]ltc.TaskID, fed+1)
	for _, p := range st.pairs {
		granted[p.Worker] = append(granted[p.Worker], p.Task)
	}
	for w := 1; w <= fed; w++ {
		fmt.Fprintf(&b, "arrival %d:", w)
		if len(granted[w]) == 0 {
			b.WriteString(" -")
		}
		for i, task := range granted[w] {
			if i > 0 {
				b.WriteByte(',')
			} else {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(task)))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "done=%t latency=%d\n", st.done, st.latency)
	for task, c := range st.credits {
		fmt.Fprintf(&b, "credit %d: %s\n", task, strconv.FormatFloat(c, 'x', -1, 64))
	}
	return b.Bytes()
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := range min(len(wl), len(gl)) {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
