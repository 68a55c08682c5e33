package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ltc"
)

// sseServer serves one canned /events response with raw, caller-controlled
// framing — the fake server for parser regression tests. The body is
// written in one piece; the client's scanner sees exactly these bytes.
func sseServer(t *testing.T, body string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL}
}

// collect drains the stream until io.EOF, failing the test on any other
// error.
func collect(t *testing.T, st *EventStream) []Event {
	t.Helper()
	var evs []Event
	for {
		e, err := st.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		evs = append(evs, e)
	}
}

// TestEventStreamPathologicalFraming pins the SSE parser against framing
// the old line-at-a-time parser mishandled: consecutive data lines without
// a blank-line separator (the earlier event was silently overwritten), one
// JSON document split across several data lines (the spec's \n join),
// comment keep-alives, bare "data" lines, and a missing space after the
// colon.
func TestEventStreamPathologicalFraming(t *testing.T) {
	body := strings.Join([]string{
		": keep-alive comment, ignored",
		`data: {"seq":1,"kind":"task_posted","task":10}`,
		`data: {"seq":2,"kind":"task_retired","task":10}`, // same frame: must NOT clobber seq 1
		"",
		"data", // bare field name: empty data line, joined as "\n"
		`data:{"seq":3,"kind":"task_completed","task":11}`, // no space after the colon
		"",
		`data: {"seq":4,`, // one JSON document split across data lines
		`data:  "kind":"platform_done",`,
		`data:  "task":0}`,
		"",
		"", // extra separators between frames are noise, not frames
		`event: task_posted`,
		`data: {"seq":5,"kind":"task_posted","task":12}`,
		"",
	}, "\n") + "\n"

	st, err := sseServer(t, body).OpenEvents(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	evs := collect(t, st)
	if len(evs) != 5 {
		t.Fatalf("got %d events %+v, want 5", len(evs), evs)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d — frames dropped or reordered", i, e.Seq, i+1)
		}
	}
	if evs[0].Kind != "task_posted" || evs[1].Kind != "task_retired" {
		t.Fatalf("consecutive data lines decoded as %q, %q", evs[0].Kind, evs[1].Kind)
	}
	if evs[3].Kind != "platform_done" {
		t.Fatalf("multi-line data frame decoded as %+v", evs[3])
	}
}

// TestEventStreamBadFrame: a frame that isn't JSON surfaces as an error
// naming the payload, not a silent skip.
func TestEventStreamBadFrame(t *testing.T) {
	st, err := sseServer(t, "data: not json\n\n").OpenEvents(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "bad event frame") {
		t.Fatalf("Next on garbage frame = %v, want bad-event-frame error", err)
	}
}

// TestEventStreamCloseUnblocksNext: closing the stream while Next is
// blocked on an idle connection yields io.EOF, not a transport error —
// the errors.Is/closed-flag replacement for the old error-string matching.
func TestEventStreamCloseUnblocksNext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // hold the stream open, never send an event
	}))
	defer srv.Close()
	st, err := (&Client{Base: srv.URL}).OpenEvents(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := st.Next()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Next block on the wire
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != io.EOF {
			t.Fatalf("Next after Close = %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
}

// TestIsClosedErr pins the sentinel matching: wrapped context cancellation
// and net.ErrClosed are teardown, anything else is a real failure.
func TestIsClosedErr(t *testing.T) {
	if !isClosedErr(fmt.Errorf("read: %w", context.Canceled)) {
		t.Fatal("wrapped context.Canceled not recognized")
	}
	if !isClosedErr(fmt.Errorf("read tcp: %w", net.ErrClosed)) {
		t.Fatal("wrapped net.ErrClosed not recognized")
	}
	if isClosedErr(io.ErrUnexpectedEOF) {
		t.Fatal("unexpected EOF misread as clean teardown")
	}
}

// livePlatform is a small Table IV platform whose subscriptions buffer
// every event the burst tests publish.
func livePlatform(t *testing.T) (*ltc.Instance, *ltc.Platform) {
	t.Helper()
	cfg := ltc.DefaultWorkload().Scale(0.01)
	cfg.Seed = 42
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ltc.NewPlatform(in, ltc.AAM, ltc.WithShards(1), ltc.WithEventBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	return in, p
}

// publish posts n tasks on p — n task_posted events into every live
// subscription — and returns what a subscriber must read for them: the
// concatenation of each event's frame, in Seq order, taken from a
// subscription of its own.
func publish(t *testing.T, in *ltc.Instance, p *ltc.Platform, n int) []byte {
	t.Helper()
	ref := p.Subscribe()
	defer ref.Close()
	for i := range n {
		if _, err := p.PostTask(ltc.Task{Loc: in.Tasks[i%len(in.Tasks)].Loc}); err != nil {
			t.Fatal(err)
		}
	}
	var want []byte
	var seq uint64
	for range n {
		e := <-ref.Events()
		if seq != 0 && e.Seq != seq+1 {
			t.Fatalf("reference subscription read seq %d after %d", e.Seq, seq)
		}
		seq = e.Seq
		want = appendFrame(want, FromEvent(e))
	}
	return want
}

// TestPlatformEventsBurst: one next call returns every event already in
// the subscription — the per-event frames back to back, in Seq order.
func TestPlatformEventsBurst(t *testing.T) {
	in, p := livePlatform(t)
	next, stop := platformNode{p: p}.events(0)
	defer stop()
	want := publish(t, in, p, 11)
	got, err := next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("burst\n%s\nwant the 11 frames\n%s", got, want)
	}
}

// TestPlatformEventsBurstBound: past maxBurst a burst splits across next
// calls, and the calls together carry every frame once, in order.
func TestPlatformEventsBurstBound(t *testing.T) {
	in, p := livePlatform(t)
	next, stop := platformNode{p: p}.events(0)
	defer stop()
	want := publish(t, in, p, 2000)
	if len(want) < 2*maxBurst {
		t.Fatalf("2000 frames are %d bytes, want more than two bursts", len(want))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []byte
	calls := 0
	for len(got) < len(want) {
		burst, err := next(ctx)
		if err != nil {
			t.Fatalf("next after %d of %d bytes: %v", len(got), len(want), err)
		}
		last := bytes.LastIndex(burst[:len(burst)-2], []byte("\n\n")) + 2
		if last >= maxBurst {
			t.Fatalf("burst of %d bytes kept draining past %d", len(burst), maxBurst)
		}
		got = append(got, burst...)
		calls++
	}
	if calls < 3 || !bytes.Equal(got, want) {
		t.Fatalf("%d calls returned %d bytes, want ≥ 3 calls and the %d bytes of 2000 frames in order", calls, len(got), len(want))
	}
}

// TestPlatformEventsClosedMidDrain: a subscription closed with events still
// buffered hands them all out in one burst, and the stream then ends.
func TestPlatformEventsClosedMidDrain(t *testing.T) {
	in, p := livePlatform(t)
	next, stop := platformNode{p: p}.events(0)
	want := publish(t, in, p, 5)
	stop()
	got, err := next(context.Background())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("next after close = %q, %v; want the 5 buffered frames", got, err)
	}
	if _, err := next(context.Background()); err != io.EOF {
		t.Fatalf("next after the drain = %v, want io.EOF", err)
	}
}

// burstNode is a node whose stream hands out canned bursts, then io.EOF.
type burstNode struct {
	ingress
	bursts [][]byte
}

func (n burstNode) events(uint64) (func(context.Context) ([]byte, error), func()) {
	i := 0
	next := func(context.Context) ([]byte, error) {
		if i == len(n.bursts) {
			return nil, io.EOF
		}
		i++
		return n.bursts[i-1], nil
	}
	return next, func() {}
}

// recordingWriter is an http.ResponseWriter and http.Flusher that logs
// every Write and Flush, in order.
type recordingWriter struct {
	header http.Header
	calls  []string
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}
func (w *recordingWriter) Flush()              { w.calls = append(w.calls, "flush") }
func (w *recordingWriter) Write(b []byte) (int, error) {
	w.calls = append(w.calls, "write "+string(b))
	return len(b), nil
}

// TestServeEventsWritesBursts: serveEvents sends each burst next returns
// with exactly one Write and one Flush, after the headers' Flush.
func TestServeEventsWritesBursts(t *testing.T) {
	b1 := appendFrame(appendFrame(nil, Event{Seq: 1, Kind: "task_completed", Task: 3, Worker: 40}),
		Event{Seq: 2, Kind: "task_completed", Task: 7, Worker: 40})
	b2 := appendFrame(nil, Event{Seq: 3, Kind: "platform_done", Task: -1})
	w := &recordingWriter{header: http.Header{}}
	serveEvents(w, httptest.NewRequest(http.MethodGet, "/events", nil), burstNode{bursts: [][]byte{b1, b2}})
	want := []string{"flush", "write " + string(b1), "flush", "write " + string(b2), "flush"}
	if fmt.Sprint(w.calls) != fmt.Sprint(want) {
		t.Fatalf("calls %q, want %q", w.calls, want)
	}
}

// oneRead hands out a whole body in its first Read, then io.EOF.
type oneRead struct {
	t *testing.T
	b []byte
}

func (r *oneRead) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	if len(p) < len(r.b) {
		r.t.Fatalf("a %d-byte read cannot hold the %d-byte burst", len(p), len(r.b))
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestEventStreamReadsBurst: a burst of gateway frames arriving in one read
// yields every event, in order, through the scanner's fast path — which
// allocates nothing per event, where decodeFrame allocates a decoder each.
func TestEventStreamReadsBurst(t *testing.T) {
	kinds := []Event{
		{Kind: "task_posted", Task: 30, PostIndex: 12},
		{Kind: "task_completed", Task: 4, Worker: 391},
		{Kind: "task_retired", Task: 30},
		{Kind: "tile_migrated", Task: -1, Tile: 17, FromShard: 2, ToShard: 1},
		{Kind: "platform_done", Task: -1},
	}
	events := func(n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = kinds[i%len(kinds)]
			evs[i].Seq = uint64(i + 1)
		}
		return evs
	}
	read := func(evs []Event) float64 {
		var burst []byte
		for _, e := range evs {
			burst = appendFrame(burst, e)
		}
		return testing.AllocsPerRun(20, func() {
			st := newEventStream(&http.Response{Body: io.NopCloser(&oneRead{t: t, b: burst})})
			for i, want := range evs {
				if got, err := st.Next(); err != nil || got != want {
					t.Fatalf("event %d = %+v, %v; want %+v", i, got, err, want)
				}
			}
			if _, err := st.Next(); err != io.EOF {
				t.Fatalf("Next after the burst = %v, want io.EOF", err)
			}
		})
	}
	small, large := read(events(50)), read(events(200))
	if raceEnabled {
		return // race instrumentation allocates; the events were still checked
	}
	if large != small {
		t.Errorf("reading 50 events allocates %v objects and 200 allocate %v; want no per-event allocation (decodeFrame's)", small, large)
	}
}

// feedNode is a node whose stream hands out the bursts sent on in, one per
// next call, and reports on sent each time serveEvents comes back for the
// next one — after it wrote and flushed the last. A closed in ends the
// stream.
type feedNode struct {
	ingress
	in   chan []byte
	sent chan struct{}
}

func (n feedNode) events(uint64) (func(context.Context) ([]byte, error), func()) {
	first := true
	next := func(ctx context.Context) ([]byte, error) {
		if !first {
			select {
			case n.sent <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		first = false
		select {
		case b, ok := <-n.in:
			if !ok {
				return nil, io.EOF
			}
			return b, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return next, func() {}
}

// TestServeEventsBurstAllocs: the stream goes out unchunked, so a burst of
// 256 bytes or more costs no allocation to write and flush — a chunked
// writer boxes every chunk length from 256 up to print its size line. The
// bytes on the wire are the frames and nothing else, and the connection
// closes when the stream ends.
func TestServeEventsBurstAllocs(t *testing.T) {
	var burst []byte
	for i := 1; len(burst) < 1024; i++ {
		burst = appendFrame(burst, Event{Seq: uint64(i), Kind: "task_completed", Task: i, Worker: 1000 + i})
	}
	n := feedNode{in: make(chan []byte), sent: make(chan struct{})}
	srv := httptest.NewServer(newMux(n))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := io.WriteString(conn, "GET /events HTTP/1.1\r\nHost: ltc\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// The header block arrives with the headers' Flush, before any frame.
	var head []byte
	for !bytes.HasSuffix(head, []byte("\r\n\r\n")) {
		var c [1]byte
		if _, err := conn.Read(c[:]); err != nil {
			t.Fatalf("reading the headers %q: %v", head, err)
		}
		head = append(head, c[0])
	}
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 200")) || bytes.Contains(head, []byte("Transfer-Encoding")) {
		t.Fatalf("headers %q, want a 200 without a Transfer-Encoding", head)
	}
	got := make([]byte, len(burst))
	allocs := testing.AllocsPerRun(50, func() {
		n.in <- burst
		<-n.sent
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, burst) {
			t.Fatalf("read %q, %v; want the %d-byte burst as sent", got, err, len(burst))
		}
	})
	close(n.in)
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Fatalf("after the stream ended the connection carried %q, %v; want it closed", rest, err)
	}
	if raceEnabled {
		return // race instrumentation allocates; the framing was still checked
	}
	if allocs != 0 {
		t.Errorf("a %d-byte burst costs %v allocations to write and flush, want 0", len(burst), allocs)
	}
}
