package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ltc"
	"ltc/internal/cluster"
)

// at decodes the log's pos-th stored frame back into its event, for the
// tests that read the log one event at a time.
func (l *eventLog) at(pos int) (e Event, wait chan struct{}, corrupt bool) {
	frames, _, wait, corrupt := l.tail(pos)
	if wait != nil || corrupt {
		return Event{}, wait, corrupt
	}
	frame, _, _ := bytes.Cut(frames, []byte("\n\n"))
	_, data, _ := bytes.Cut(frame, []byte("\ndata: "))
	if err := json.Unmarshal(data, &e); err != nil {
		panic(fmt.Sprintf("stored frame %q: %v", frame, err))
	}
	return e, nil, false
}

// sameDecode holds the package's read path to encoding/json's on one input
// and one shape: the same value (nil against empty and -0 against 0
// included), an error on the same inputs, with the same text. It returns the
// value and whether the scanner — not the fallback — produced it.
func sameDecode[T any, P interface {
	*T
	scanJSON([]byte) (int, bool)
}](t *testing.T, data []byte) (T, bool) {
	t.Helper()
	var got, want, probe T
	gotErr := decodeJSON(data, P(&got))
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%T from %q: error %v, encoding/json says %v", got, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("%T from %q:\n got %#v\nwant %#v", got, data, got, want)
	}
	n, fast := P(&probe).scanJSON(data)
	if fast && (n <= 0 || n > len(data) || data[n-1] != '}') {
		t.Fatalf("%T from %q: scanner stopped at %d, not after the value", got, data, n)
	}
	if !fast && !reflect.DeepEqual(probe, *new(T)) {
		t.Fatalf("%T from %q: the scanner refused and still wrote %#v", got, data, probe)
	}
	return got, fast
}

// sameEncode holds the package's write path to json.Marshal's on one value.
func sameEncode(t *testing.T, v any) {
	t.Helper()
	got, gotErr := encodeJSON([]byte("prefix"), v)
	want, wantErr := json.Marshal(v)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%#v: error %v, json.Marshal says %v", v, gotErr, wantErr)
	}
	if gotErr == nil && string(got) != "prefix"+string(want) {
		t.Fatalf("%#v:\n got %s\nwant prefix%s", v, got, want)
	}
}

// fuzzValues spends data on field values: raw float bits (NaN, the
// infinities, subnormals and every exponent among them), integers of every
// size, strings of any bytes.
type fuzzValues struct{ b []byte }

func (g *fuzzValues) u64() uint64 {
	var x [8]byte
	g.b = g.b[copy(x[:], g.b):]
	return binary.LittleEndian.Uint64(x[:])
}

func (g *fuzzValues) int() int { return int(int64(g.u64()) >> (g.u64() % 64)) }

func (g *fuzzValues) float() float64 {
	switch u := g.u64(); u % 4 {
	case 0:
		return float64(int64(u)>>8) / 1000
	case 1:
		return math.Pow(10, float64(int(u>>8)%50-25)) * float64(g.int()%1000)
	default:
		return math.Float64frombits(g.u64())
	}
}

func (g *fuzzValues) receipt() Receipt {
	r := Receipt{Worker: g.int(), Shard: g.int(), Done: g.u64()%2 == 0, Bounced: g.u64()%2 == 0}
	for n := g.u64() % 4; n > 0; n-- {
		r.Assignments = append(r.Assignments, Grant{Task: g.int(), Credit: g.float(), Completed: g.u64()%2 == 0})
	}
	return r
}

// checkWire is the differential: data read as each of the five shapes, what
// decodes written back, and values made from data's bytes written.
func checkWire(t *testing.T, data []byte) (fast map[string]bool) {
	t.Helper()
	w, fastW := sameDecode[Worker](t, data)
	breq, fastBreq := sameDecode[BatchRequest](t, data)
	rec, fastRec := sameDecode[Receipt](t, data)
	bresp, fastBresp := sameDecode[BatchResponse](t, data)
	ev, fastEv := sameDecode[Event](t, data)
	for _, v := range []any{w, breq, rec, bresp, ev} {
		sameEncode(t, v)
	}

	g := fuzzValues{b: data}
	ws := []Worker{{Index: g.int(), X: g.float(), Y: g.float(), Acc: g.float()}, {Index: g.int(), X: g.float()}}
	recs := []Receipt{g.receipt(), g.receipt()}
	kind := string(g.b[:min(len(g.b), 12)])
	g.b = g.b[len(kind):]
	for _, v := range []any{
		ws[0], BatchRequest{Workers: ws}, BatchRequest{Workers: ws[:0]}, BatchRequest{},
		recs[0], BatchResponse{Receipts: recs, Done: true}, BatchResponse{Receipts: recs[:0]}, BatchResponse{},
		Event{Seq: g.u64(), Kind: kind, Task: g.int(), Worker: g.int(), PostIndex: g.int() % 2, Tile: g.int(), FromShard: g.int(), ToShard: g.int()},
		Event{Seq: 1, Kind: "task_completed", Task: -1},
	} {
		sameEncode(t, v)
		if e, ok := v.(Event); ok {
			data, _ := json.Marshal(e)
			if got, want := appendFrame(nil, e), fmt.Sprintf("event: %s\ndata: %s\n\n", e.Kind, data); string(got) != want {
				t.Fatalf("frame of %#v:\n got %q\nwant %q", e, got, want)
			}
		}
	}
	return map[string]bool{"worker": fastW, "batchrequest": fastBreq, "receipt": fastRec, "batchresponse": fastBresp, "event": fastEv}
}

// FuzzWireCodec: for arbitrary bytes, the package's codec and encoding/json
// cannot be told apart. The seed corpus is testdata/fuzz/FuzzWireCodec.
func FuzzWireCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkWire(t, data) })
}

// TestWireCodecCorpus is FuzzWireCodec's always-on twin over the committed
// corpus, and the check that the scanner has not quietly become the
// fallback: an entry named fast-<shape>-… must be read by that shape's
// scanner, one named slow-… by no scanner at all.
func TestWireCodecCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzWireCodec/*")
	if err != nil || len(files) < 40 {
		t.Fatalf("corpus: %d files, %v", len(files), err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-[]byte corpus file", file)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		fast := checkWire(t, []byte(body))
		name := strings.Split(filepath.Base(file), "-")
		switch {
		case name[0] == "fast" && !fast[name[1]]:
			t.Errorf("%s: the %s scanner refused %q", file, name[1], body)
		case name[0] == "slow":
			for shape, took := range fast {
				if took {
					t.Errorf("%s: the %s scanner took %q", file, shape, body)
				}
			}
		case name[0] != "fast" && name[0] != "slow":
			t.Errorf("%s: name says neither fast-<shape>- nor slow-", file)
		}
	}
}

// rigBatch is the bench rig's wire-batch call: 64 workers out, their
// receipts back with about 2.3 grants each.
func rigBatch(n int) (BatchRequest, BatchResponse) {
	rng := rand.New(rand.NewPCG(42, 42))
	req := BatchRequest{Workers: make([]Worker, n)}
	resp := BatchResponse{Receipts: make([]Receipt, n)}
	for i := range req.Workers {
		req.Workers[i] = Worker{Index: 1000 + i, X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Acc: 0.66 + rng.Float64()/3}
		rec := Receipt{Worker: 1000 + i, Shard: rng.IntN(8)}
		for g := rng.IntN(6) * rng.IntN(3) / 2; g > 0; g-- {
			rec.Assignments = append(rec.Assignments, Grant{Task: rng.IntN(3000), Credit: rng.Float64(), Completed: rng.IntN(8) == 0})
		}
		resp.Receipts[i] = rec
	}
	return req, resp
}

// TestWireCodecAllocs: a batch call's codec work allocates what it hands
// over — the worker slice, the receipt slice, the grant block — however
// many workers the batch carries, and an event frame allocates nothing.
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var buf []byte
	call := func(n int) float64 {
		req, resp := rigBatch(n)
		return testing.AllocsPerRun(100, func() {
			var gotReq BatchRequest
			var gotResp BatchResponse
			var ok1, ok2, ok3, ok4 bool
			buf, ok1 = req.appendJSON(buf[:0])
			_, ok2 = gotReq.scanJSON(buf)
			buf, ok3 = resp.appendJSON(buf[:0])
			_, ok4 = gotResp.scanJSON(buf)
			if !ok1 || !ok2 || !ok3 || !ok4 || len(gotReq.Workers) != n || len(gotResp.Receipts) != n {
				t.Fatal("the batch did not go through the codec")
			}
		})
	}
	if small, rig := call(8), call(64); small != 3 || rig != 3 {
		t.Errorf("a batch call's codec work allocates %v objects at 8 workers and %v at 64, want 3 and 3", small, rig)
	}
	e := Event{Seq: 812, Kind: "task_completed", Task: 2999, Worker: 39871}
	if n := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], e)
		var got Event
		if _, ok := got.scanJSON(buf[len("event: task_completed\ndata: "):]); !ok || got != e {
			t.Fatalf("frame %q read back as %+v", buf, got)
		}
	}); n != 0 {
		t.Errorf("an event frame allocates %v objects, want 0", n)
	}
}

// BenchmarkWireCodec states the codec's own cost on the bench rig's shapes,
// beside encoding/json's on the same values.
func BenchmarkWireCodec(b *testing.B) {
	req, resp := rigBatch(64)
	ev := Event{Seq: 812, Kind: "task_completed", Task: 2999, Worker: 39871}
	shape := func(name string, v interface{ appendJSON([]byte) ([]byte, bool) }, scan func([]byte) (int, bool), into func() any) {
		data, _ := v.appendJSON(nil)
		b.Run(name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				data, _ = v.appendJSON(data[:0])
			}
		})
		b.Run(name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, ok := scan(data); !ok {
					b.Fatal("refused")
				}
			}
		})
		b.Run(name+"/encodingjson/marshal", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encodingjson/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := json.NewDecoder(bytes.NewReader(data)).Decode(into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	shape("request", req, func(d []byte) (int, bool) { return new(BatchRequest).scanJSON(d) }, func() any { return new(BatchRequest) })
	shape("response", resp, func(d []byte) (int, bool) { return new(BatchResponse).scanJSON(d) }, func() any { return new(BatchResponse) })
	shape("event", ev, func(d []byte) (int, bool) { return new(Event).scanJSON(d) }, func() any { return new(Event) })
}

// echoNode answers from the request alone, so that a test knows every
// response without running a platform: a worker's receipt grants
// index mod 4 tasks; index 0 is refused (400) and a negative x misrouted
// (421).
type echoNode struct{}

func echoReceipt(w Worker) Receipt {
	r := Receipt{Worker: w.Index, Shard: w.Index % 3, Done: w.Index%5 == 0}
	for g := 0; g < w.Index%4; g++ {
		r.Assignments = append(r.Assignments, Grant{Task: w.Index + g, Credit: w.Acc / float64(g+1), Completed: g == 2})
	}
	return r
}

func (echoNode) checkIn(w Worker) (Receipt, error) {
	switch {
	case w.Index == 0:
		return Receipt{}, errors.New("arrival index must be positive")
	case w.X < 0:
		return Receipt{}, redirect(1, -1, "belongs to node 1")
	}
	return echoReceipt(w), nil
}

func (echoNode) checkInBatch(req BatchRequest) (BatchResponse, error) {
	resp := BatchResponse{Receipts: make([]Receipt, len(req.Workers))}
	for i, w := range req.Workers {
		resp.Receipts[i] = echoReceipt(w)
	}
	return resp, nil
}

func (echoNode) postTask(TaskRequest) (TaskResponse, error) { return TaskResponse{ID: 7}, nil }
func (echoNode) retireTask(int) error                       { return nil }
func (echoNode) stats() any                                 { return Stats{} }
func (echoNode) events(uint64) (func(context.Context) ([]byte, error), func()) {
	return func(ctx context.Context) ([]byte, error) { <-ctx.Done(); return nil, ctx.Err() }, func() {}
}

// TestUnencodableValues: what json.Marshal refuses, the codec refuses with
// json.Marshal's error — a request is not sent, a response keeps its status
// and has no body.
func TestUnencodableValues(t *testing.T) {
	_, wantErr := json.Marshal(math.NaN())
	c := &Client{Base: "http://127.0.0.1:1"} // never dialled
	if _, err := c.CheckIn(Worker{Index: 1, X: math.NaN()}); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("NaN worker: %v, want %v", err, wantErr)
	}
	if _, _, err := c.CheckInBatch([]Worker{{Index: 1}, {Index: 2, Acc: math.Inf(-1)}}); err == nil || !strings.Contains(err.Error(), "unsupported value: -Inf") {
		t.Fatalf("-Inf in a batch: %v", err)
	}
	for _, v := range []any{
		Receipt{Worker: 1, Assignments: []Grant{{Task: 1, Credit: math.Inf(1)}}},
		BatchResponse{Receipts: []Receipt{{}, {Assignments: []Grant{{Credit: math.NaN()}}}}},
		Stats{Imbalance: math.NaN()},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "0" {
			t.Fatalf("%#v: HTTP %d, Content-Length %q, body %q", v, rec.Code, rec.Header().Get("Content-Length"), rec.Body)
		}
	}
}

// TestClientBufferLifetime is the race detector's view of the buffer rule:
// two feeders share the pool with each other and with the server for 2 000
// batch calls each, of every size, and each call's receipts must be the ones
// encoding/json reads from the response the request determines. A buffer
// handed back while the transport or a handler still reads it shows up as a
// race, or as somebody else's workers.
func TestClientBufferLifetime(t *testing.T) {
	srv := httptest.NewServer(newMux(echoNode{}))
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: &http.Transport{}}}
			defer c.HTTP.CloseIdleConnections()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			for call := 0; call < 2000; call++ {
				ws := make([]Worker, 1+rng.IntN(96))
				for i := range ws {
					ws[i] = Worker{Index: 1 + rng.IntN(1e6), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Acc: rng.Float64()}
				}
				recs, _, err := c.CheckInBatch(ws)
				if err != nil {
					t.Error(err)
					return
				}
				control, _ := echoNode{}.checkInBatch(BatchRequest{Workers: ws})
				data, err := json.Marshal(control)
				if err != nil {
					t.Error(err)
					return
				}
				var want BatchResponse
				if err := json.Unmarshal(data, &want); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(recs, want.Receipts) {
					t.Errorf("feeder %d call %d: receipts differ from the control's\n got %+v\nwant %+v", g, call, recs, want.Receipts)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClientKeepsConnection: the client reads every response to its end —
// success, no content, refused, misrouted — so one connection serves them
// all.
func TestClientKeepsConnection(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(newMux(echoNode{}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	var re *RedirectError
	for i := 1; i <= 50; i++ {
		if rec, err := c.CheckIn(Worker{Index: i, Acc: 0.9}); err != nil || !reflect.DeepEqual(rec, jsonRoundTrip(t, echoReceipt(Worker{Index: i, Acc: 0.9}))) {
			t.Fatalf("200: %+v, %v", rec, err)
		}
		if err := c.RetireTask(i); err != nil {
			t.Fatalf("204: %v", err)
		}
		if _, err := c.CheckIn(Worker{}); err == nil || !strings.Contains(err.Error(), "arrival index must be positive (HTTP 400)") {
			t.Fatalf("400: %v", err)
		}
		if _, err := c.CheckIn(Worker{Index: i, X: -1}); !errors.As(err, &re) || re.Owner != 1 {
			t.Fatalf("421: %v", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("200 calls opened %d connections, want 1", n)
	}
}

func jsonRoundTrip[T any](t *testing.T, v T) (out T) {
	t.Helper()
	data, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEventLogServesStoredFrames: a cluster node frames each event once, so
// every stream it serves — two subscribers from the start, a ?since= replay —
// carries the same bytes, and they are encoding/json's of the event with its
// cluster-global task ID.
func TestEventLogServesStoredFrames(t *testing.T) {
	in := tableIV(t, 0.01, 42)
	topo, err := cluster.Build(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	// The node that does not own global task 0: its local IDs are not its
	// global ones.
	node := 1 - int(split.OwnerOf[0])
	sub := split.Subs[node]
	if sub == nil {
		t.Fatalf("node %d owns no tasks", node)
	}
	plat, err := ltc.NewPlatform(sub.In, ltc.AAM, ltc.WithShards(2), ltc.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = plat.Close() }()
	witness := plat.Subscribe()
	defer witness.Close()
	cs, err := NewClusterServer(plat, ltc.AAM, 2, topo, node, split)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	srv := httptest.NewServer(cs.Handler())
	defer srv.Close()

	for _, w := range in.Workers {
		if topo.NodeFor(w.Loc) == node && !plat.Done() {
			if _, err := plat.CheckIn(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range plat.TaskStatuses() { // whatever the stream left open expires
		if !st.Completed {
			if err := plat.RetireTask(st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	var frames [][]byte
	for len(frames) == 0 || !bytes.Contains(frames[len(frames)-1], []byte("platform_done")) {
		e := FromEvent(<-witness.Events())
		if e.Task >= 0 {
			e.Task = int(sub.Global[e.Task])
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", e.Kind, data)))
	}

	const since = 5
	for _, stream := range []struct {
		query string
		want  []byte
	}{
		{"", bytes.Join(frames, nil)},
		{"", bytes.Join(frames, nil)},
		{"?since=" + strconv.Itoa(since), bytes.Join(frames[since:], nil)},
	} {
		resp, err := http.Get(srv.URL + "/events" + stream.query)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(stream.want))
		_, err = io.ReadFull(resp.Body, got)
		_ = resp.Body.Close()
		if err != nil || !bytes.Equal(got, stream.want) {
			t.Fatalf("GET /events%s: %v\n got %q\nwant %q", stream.query, err, got, stream.want)
		}
	}
}
