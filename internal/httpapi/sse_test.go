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

// recordingWriter is an http.ResponseWriter and http.Flusher that logs
// every Write and Flush, in order, and reports each Flush on flushed until
// done closes.
type recordingWriter struct {
	header  http.Header
	calls   []string
	flushed chan struct{}
	done    <-chan struct{}
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}
func (w *recordingWriter) Flush() {
	w.calls = append(w.calls, "flush")
	select {
	case w.flushed <- struct{}{}:
	case <-w.done:
	}
}
func (w *recordingWriter) Write(b []byte) (int, error) {
	w.calls = append(w.calls, "write "+string(b))
	return len(b), nil
}

// TestServeEventsWritesBursts: serveEvents sends each tail of the log that
// is ready — the events recorded before the stream opened, then the one
// recorded later — with exactly one Write and one Flush, after the headers'
// Flush.
func TestServeEventsWritesBursts(t *testing.T) {
	evs := []Event{
		{Seq: 1, Kind: "task_completed", Task: 3, Worker: 40},
		{Seq: 2, Kind: "task_completed", Task: 7, Worker: 40},
		{Seq: 3, Kind: "platform_done", Task: -1},
	}
	l := newEventLog()
	l.append(evs[0])
	l.append(evs[1])
	ctx, cancel := context.WithCancel(context.Background())
	w := &recordingWriter{header: http.Header{}, flushed: make(chan struct{}), done: ctx.Done()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveEvents(w, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx), l)
	}()
	<-w.flushed // the headers
	<-w.flushed // the two events recorded before the stream opened
	l.append(evs[2])
	<-w.flushed
	cancel()
	<-served
	b1 := appendFrame(appendFrame(nil, evs[0]), evs[1])
	b2 := appendFrame(nil, evs[2])
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
		{Kind: "tile_migrated", Task: -1},
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

// heldFlusher is the ResponseWriter serveEvents streams to in the burst
// test: each Flush sends the bytes on, then holds serveEvents until the test
// sends on resume (or the stream ends), so that the test can record a whole
// burst while it waits.
type heldFlusher struct {
	http.ResponseWriter
	resume chan struct{}
	done   <-chan struct{}
}

func (w heldFlusher) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	select {
	case <-w.resume:
	case <-w.done:
	}
}

// TestServeEventsBurstAllocs: the stream goes out unchunked, so a burst of
// 256 bytes or more costs no allocation to write and flush — a chunked
// writer boxes every chunk length from 256 up to print its size line. The
// bytes on the wire are the log's frames and nothing else, and the
// connection closes when the stream ends.
func TestServeEventsBurstAllocs(t *testing.T) {
	var burst []Event
	var frames []byte
	for i := 1; len(frames) < 1024; i++ {
		burst = append(burst, Event{Seq: uint64(i), Kind: "task_completed", Task: i, Worker: 1000 + i})
		frames = appendFrame(frames, burst[i-1])
	}
	// Logs sized for every burst the test records, so that an append costs
	// the same allocations — its wake-up channel — on both.
	const runs = 50
	sized := func() *eventLog {
		l := newEventLog()
		l.frames = make([]byte, 0, (runs+1)*len(frames))
		l.ends = make([]int, 0, (runs+1)*len(burst))
		return l
	}
	record := func(l *eventLog) {
		for _, e := range burst {
			l.append(e)
		}
	}
	alone := sized()
	recording := testing.AllocsPerRun(runs, func() { record(alone) })
	l := sized()
	resume := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveEvents(heldFlusher{w, resume, ctx.Done()}, r.WithContext(ctx), l)
	}))
	defer srv.Close()
	defer cancel() // ends the stream, which srv.Close waits for
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
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
	got := make([]byte, len(frames))
	allocs := testing.AllocsPerRun(runs, func() {
		record(l)
		resume <- struct{}{}
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, frames) {
			t.Fatalf("read %q, %v; want the %d-byte burst as recorded", got, err, len(frames))
		}
	})
	cancel() // lets serveEvents out of the last burst's Flush, and ends the stream
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Fatalf("after the stream ended the connection carried %q, %v; want it closed", rest, err)
	}
	if raceEnabled {
		return // race instrumentation allocates; the framing was still checked
	}
	if allocs != recording {
		t.Errorf("a %d-byte burst costs %v allocations to record, write and flush, want the %v of recording it alone", len(frames), allocs, recording)
	}
}
