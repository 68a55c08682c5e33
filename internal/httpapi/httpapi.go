// Package httpapi is the HTTP/JSON surface of the ltcd gateway: wire DTOs,
// an http.Handler serving a live ltc.Platform, and a typed client used by
// the ltcbench loadgen and the end-to-end tests.
//
// Routes (all JSON unless noted):
//
//	POST   /checkin        one Worker        → Receipt
//	POST   /checkin/batch  {"workers":[…]}   → {"receipts":[…],"done":bool}
//	POST   /tasks          {"x":…,"y":…}     → {"id":…}
//	DELETE /tasks/{id}                       → 204 (404 for unknown IDs)
//	GET    /stats                            → Stats
//	GET    /events         Server-Sent Events: one frame per platform event,
//	                       every ready frame in one write; ?since=N resumes
//	                       after the N-th event
//
// A check-in bounced because the platform is complete is not an HTTP
// error: it returns 200 with the bounced receipt ("done":true,
// "bounced":true), matching ltc.ErrPlatformDone's in-process contract.
// Failures are a JSON {"error":…} under 400 (a body that does not decode, a
// request the platform refuses), 404 (an unknown task), 413 (a body over
// 1 MiB — maxBody, some 12 000 workers; a constant, since no deployment
// needs another value) and, on cluster nodes, 421 naming the owner. A JSON
// response is one Write under a Content-Length.
//
// # The wire codec
//
// The five shapes that cross the wire once per check-in — Worker and
// BatchRequest in, Receipt and BatchResponse out, Event on the SSE stream —
// have hand-written encoders and a scanner (codec.go); everything else
// (/stats, /tasks, /cluster/info, error and redirect bodies) goes through
// encoding/json. Two rules make the pair indistinguishable from
// encoding/json alone:
//
//   - Byte identity. An encoder writes exactly json.Marshal's bytes — field
//     order, omitempty, null for a nil list, the float format with its 1e-6
//     and 1e21 switch to exponents, json.Encoder's trailing newline on
//     responses — or declines (a NaN, an infinity, a string that needs an
//     escape), and json.Marshal encodes or refuses the value itself.
//   - Scanner or encoding/json. The scanner reads the spelling the encoders
//     write, in any key order and with any whitespace. Whatever it does not
//     recognise — an escape, "Index" for "index", null, an unknown or
//     repeated field, a 19-digit integer, a truncated body — it refuses
//     without a verdict, and the same bytes go to the json.Decoder call the
//     handlers have always made. Acceptance, rejection, the first-value-only
//     rule and every error text for unusual input are therefore
//     encoding/json's by construction, and FuzzWireCodec's comparison of the
//     two is a proof obligation, not a hope.
//
// That fallback is the handling of outside input and the reference the fuzz
// compares against, so it is not a second implementation to choose: no flag,
// option, environment variable or build tag picks a codec.
//
// # Buffers
//
// Bodies are read whole into, and written from, pooled buffers (wireBuf).
// A buffer has one holder at a time and goes back to the pool only when
// nothing can still read it: a handler's request buffer after the decode
// (decoded values hold no reference into it), its response buffer after
// Write returns; the client's response buffer after the decode, and its
// request buffer — which http.Transport may still be writing after Do
// returns — only once the response body is read to its end and closed,
// which is also what keeps the connection reusable on every status. On any
// other path (Do failed, the body broke off) the request buffer is left to
// the garbage collector. A buffer that grew past 64 KiB (maxPooled) is
// never pooled, so one large body cannot sit there for good; the handler's
// reads are capped by maxBody, the client reads its own server's responses
// (about 1.6× the request, bounded by K grants a worker) and needs no cap.
package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"ltc"
	"ltc/internal/events"
	"ltc/internal/geo"
)

// Worker is the wire form of ltc.Worker.
type Worker struct {
	Index int     `json:"index"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Acc   float64 `json:"acc"`
}

// Model converts to the in-process worker.
func (w Worker) Model() ltc.Worker {
	return ltc.Worker{Index: w.Index, Loc: geo.Point{X: w.X, Y: w.Y}, Acc: w.Acc}
}

// FromWorker converts an in-process worker to its wire form.
func FromWorker(w ltc.Worker) Worker {
	return Worker{Index: w.Index, X: w.Loc.X, Y: w.Loc.Y, Acc: w.Acc}
}

// Grant is the wire form of ltc.TaskGrant.
type Grant struct {
	Task      int     `json:"task"`
	Credit    float64 `json:"credit"`
	Completed bool    `json:"completed"`
}

// Receipt is the wire form of ltc.Receipt, plus Bounced marking check-ins
// refused with ErrPlatformDone (the worker was counted but not routed).
type Receipt struct {
	Worker      int     `json:"worker"`
	Shard       int     `json:"shard"`
	Assignments []Grant `json:"assignments,omitempty"`
	Done        bool    `json:"done"`
	Bounced     bool    `json:"bounced,omitempty"`
}

// FromReceipt converts an in-process receipt.
func FromReceipt(r ltc.Receipt, bounced bool) Receipt {
	block := make([]Grant, 0, len(r.Assignments))
	return fromReceipt(r, bounced, &block)
}

// fromReceipt converts r, appending its grants to block and cutting
// Assignments from there, clipped so that a caller's append to one receipt's
// cannot reach the next one's. A receipt without grants has none, not an
// empty list.
func fromReceipt(r ltc.Receipt, bounced bool, block *[]Grant) Receipt {
	out := Receipt{Worker: r.Worker, Shard: r.Shard, Done: r.Done, Bounced: bounced}
	if len(r.Assignments) > 0 {
		start := len(*block)
		for _, g := range r.Assignments {
			*block = append(*block, Grant{Task: int(g.Task), Credit: g.Credit, Completed: g.Completed})
		}
		out.Assignments = (*block)[start:len(*block):len(*block)]
	}
	return out
}

// BatchRequest is POST /checkin/batch's body.
type BatchRequest struct {
	Workers []Worker `json:"workers"`
}

// BatchResponse is POST /checkin/batch's result: the receipts of the
// ingested prefix, and Done = true when the platform completed (possibly
// mid-batch, leaving the tail unobserved — see ltc.Platform.CheckInBatch).
type BatchResponse struct {
	Receipts []Receipt `json:"receipts"`
	Done     bool      `json:"done"`
}

// TaskRequest is POST /tasks's body (the new task's location).
type TaskRequest struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// TaskResponse is POST /tasks's result.
type TaskResponse struct {
	ID int `json:"id"`
}

// ShardStat is the wire form of ltc.ShardStats.
type ShardStat struct {
	Tasks     int `json:"tasks"`
	Completed int `json:"completed"`
	Retired   int `json:"retired"`
	Workers   int `json:"workers"`
	Offered   int `json:"offered"`
	// QueueDepth is the shard's CheckInAsync backlog at snapshot time (0
	// when the async path is unused).
	QueueDepth int `json:"queue_depth"`
	Latency    int `json:"latency"`
	// MigratedIn/MigratedOut count the tasks this shard adopted from and
	// handed to other shards through live tile migration (0 unless the
	// gateway runs with -rebalance).
	MigratedIn  int `json:"migrated_in,omitempty"`
	MigratedOut int `json:"migrated_out,omitempty"`
}

// Stats is GET /stats's result: the platform's full progress snapshot.
// Shards is the effective shard count; RequestedShards echoes what the
// gateway asked NewPlatform for (they differ when empty spatial tiles
// collapsed), which is what a client must request to mirror the gateway's
// spatial grid in-process. Balanced reports whether the load-aware
// tile→shard layout is active, and Imbalance the busiest shard's routed
// check-ins over the per-shard mean (1.0 = even) — the skew-diagnosis
// pair for gateways serving hotspot traffic.
type Stats struct {
	Algo            string  `json:"algo"`
	Shards          int     `json:"shards"`
	RequestedShards int     `json:"requested_shards"`
	Balanced        bool    `json:"balanced,omitempty"`
	Tasks           int     `json:"tasks"`
	Latency         int     `json:"latency"`
	RelativeLatency int     `json:"relative_latency"`
	WorkersSeen     int     `json:"workers_seen"`
	Resolved        int     `json:"resolved"`
	Total           int     `json:"total"`
	Done            bool    `json:"done"`
	Imbalance       float64 `json:"imbalance"`
	// Rebalanced reports whether adaptive live re-sharding is active, and
	// Migrations how many tile migrations have committed so far.
	Rebalanced bool        `json:"rebalanced,omitempty"`
	Migrations int         `json:"migrations,omitempty"`
	ShardStats []ShardStat `json:"shard_stats"`
}

// Event is the wire form of ltc.Event; Kind is the event kind's string
// name (task_posted, task_retired, task_completed, platform_done,
// tile_migrated), also used as the SSE event name. Tile, FromShard and
// ToShard are only meaningful on tile_migrated frames (whose Task is -1).
type Event struct {
	Seq       uint64 `json:"seq"`
	Kind      string `json:"kind"`
	Task      int    `json:"task"`
	Worker    int    `json:"worker,omitempty"`
	PostIndex int    `json:"post_index,omitempty"`
	Tile      int    `json:"tile,omitempty"`
	FromShard int    `json:"from_shard,omitempty"`
	ToShard   int    `json:"to_shard,omitempty"`
}

// FromEvent converts an in-process platform event.
func FromEvent(e ltc.Event) Event {
	return Event{Seq: e.Seq, Kind: e.Kind.String(), Task: int(e.Task), Worker: e.Worker, PostIndex: e.PostIndex,
		Tile: e.Tile, FromShard: e.FromShard, ToShard: e.ToShard}
}

// ingress is the request/response half of a node, what the one handler set
// serves besides its event log. The plain gateway is the Platform adapter
// (platformNode); a cluster node decorates one with ownership and ID
// translation (ClusterServer). Handlers never ask which they were given.
// Task IDs are the node's own: a platform's dense local IDs below a
// ClusterServer, cluster-global IDs above it.
type ingress interface {
	checkIn(Worker) (Receipt, error)
	checkInBatch(BatchRequest) (BatchResponse, error)
	postTask(TaskRequest) (TaskResponse, error)
	retireTask(id int) error
	stats() any
}

// NewHandler wraps the platform in the gateway's HTTP surface. algo and
// requestedShards (the resolved shard count passed to NewPlatform — never
// 0) are echoed in /stats so clients can mirror the run in-process. The
// handler records the platform's events from here on for GET /events, as
// long as the platform lives.
func NewHandler(p *ltc.Platform, algo ltc.Algorithm, requestedShards int) http.Handler {
	log := newEventLog()
	events.RecordPlatform(p, func(e ltc.Event) { log.append(FromEvent(e)) })
	return newMux(platformNode{p: p, algo: string(algo), requested: requestedShards}, log)
}

// newMux registers the gateway routes — the one handler set of the package —
// over n, with GET /events served from log. The second argument of call is
// the status of a node failure that does not name its own (see writeError).
func newMux(n ingress, log *eventLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /checkin", call("worker", http.StatusBadRequest, n.checkIn))
	mux.HandleFunc("POST /checkin/batch", call("batch", http.StatusBadRequest, n.checkInBatch))
	mux.HandleFunc("POST /tasks", call("task", http.StatusInternalServerError, n.postTask))
	mux.HandleFunc("DELETE /tasks/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad task id: %w", err))
		} else if err := n.retireTask(id); err != nil {
			writeError(w, http.StatusNotFound, err)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, n.stats())
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) { serveEvents(w, r, log) })
	return mux
}

// maxBody is the largest request body a handler reads (a 64-worker batch is
// 5.4 KB; this is some 12 000 workers). A longer one is a 413.
const maxBody = 1 << 20

// call is the JSON request handler: read the body whole, decode it, make the
// one node call, map a failure to its status, encode the result.
func call[Req, Resp any](what string, failStatus int, do func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body Req
		buf := getBuf()
		err := buf.readAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err == nil {
			err = decodeJSON(buf.b, &body)
		}
		putBuf(buf)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
			return
		}
		resp, err := do(body)
		if err != nil {
			writeError(w, failStatus, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeJSON writes v and a newline — json.Encoder's bytes — with the given
// status, in one Write under a Content-Length. A v that does not encode
// leaves the body empty; a failed Write can only mean a dead connection, so
// it is dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf) // after Write returns
	var err error
	if buf.b, err = encodeJSON(buf.b, v); err == nil {
		buf.b = append(buf.b, '\n')
	} else {
		buf.b = buf.b[:0]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.b)))
	w.WriteHeader(status)
	_, _ = w.Write(buf.b)
}

// httpError is the JSON error body for non-2xx responses.
type httpError struct {
	Error string `json:"error"`
}

// statusError is a node failure that names its own HTTP status, for the
// cases the handler's default does not fit.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// writeError is the one error→status mapping: a misrouted request is a 421
// redirect naming the owner, a statusError carries its own code, a body
// over maxBody is a 413, anything else gets the calling handler's default.
func writeError(w http.ResponseWriter, status int, err error) {
	var re *RedirectError
	var se *statusError
	var tooLarge *http.MaxBytesError
	if errors.As(err, &re) {
		writeRedirect(w, re.Owner, re.Index, re.Msg)
		return
	}
	if errors.As(err, &se) {
		status = se.status
	} else if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, httpError{Error: err.Error()})
}

// serveEvents streams log as Server-Sent Events: one frame per event, named
// by the event kind, with the JSON Event as data, resuming after the
// since-th event (?since=N; 0, the default, is the beginning) and then
// following the live log. Every frame that is ready — the log's unread tail,
// framed once by the publisher however many streams carry it — goes out in
// one Write and one Flush. A since past the log's end is a 400: the client
// holds sequence numbers of some other log (a node that restarted), and
// waiting for this one to catch up would silently skip its first events. A
// client that stops reading is dropped by the write path, never the
// platform. The stream stays open after platform_done — a PostTask can
// revive the run — until the client disconnects. The response is sent with
// Transfer-Encoding: identity, the setup net/http documents for Server-Sent
// Events: the bytes go out raw, without chunk framing (whose length line
// would cost an allocation per burst of 256 bytes or more), and the
// connection closes when the stream ends.
func serveEvents(w http.ResponseWriter, r *http.Request, log *eventLog) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		var err error
		if since, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q: %w", v, err))
			return
		}
	}
	if n := log.len(); since > uint64(n) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("since %d is ahead of the log's %d events", since, n))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Transfer-Encoding", "identity")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for pos := int(since); ; { // the log's i-th event has per-node Seq i+1
		frames, n, wait := log.tail(pos)
		if wait != nil {
			select {
			case <-r.Context().Done():
				return
			case <-wait:
			}
			continue
		}
		if _, err := w.Write(frames); err != nil {
			return
		}
		flusher.Flush()
		pos += n
	}
}

// eventLog is a node's append-only recorded event history backing
// resumable /events streams: every event's finished SSE frame, back to back,
// so that a stream — the first subscriber's, the tenth's, a ?since= replay —
// is a copy of bytes framed once, by the publisher. Written bytes never
// change (an append that outgrows the array moves on to a new one), so
// readers hold their slice of them without the lock. Appends broadcast by
// closing notify. mu nests inside the bus lock (append runs as the bus's
// recorder); nothing nests inside mu, and no holder of it waits on the bus.
type eventLog struct {
	mu     sync.Mutex
	frames []byte
	// ends[i] is where the i-th event's frame ends in frames. The log keeps
	// no sequence numbers: a node's i-th event has per-node Seq i+1.
	ends   []int
	notify chan struct{}
}

func newEventLog() *eventLog { return &eventLog{notify: make(chan struct{})} }

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	l.frames = appendFrame(l.frames, e)
	l.ends = append(l.ends, len(l.frames))
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// len is the number of events recorded so far.
func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ends)
}

// tail returns the frames of the n events recorded after the first pos, or —
// when the log hasn't grown that far — a channel that closes on the next
// append.
func (l *eventLog) tail(pos int) (frames []byte, n int, wait chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pos < len(l.ends) {
		start := 0
		if pos > 0 {
			start = l.ends[pos-1]
		}
		return l.frames[start:], len(l.ends) - pos, nil
	}
	return nil, 0, l.notify
}

// platformNode adapts a live ltc.Platform to the ingress interface — the
// plain gateway.
type platformNode struct {
	p         *ltc.Platform
	algo      string
	requested int
}

// checkIn maps a bounce off a completed platform to its 200 receipt
// ("bounced":true), matching ltc.ErrPlatformDone's in-process contract.
func (n platformNode) checkIn(w Worker) (Receipt, error) {
	rec, err := n.p.CheckIn(w.Model())
	bounced := errors.Is(err, ltc.ErrPlatformDone)
	if err != nil && !bounced {
		return Receipt{}, err
	}
	return FromReceipt(rec, bounced), nil
}

func (n platformNode) checkInBatch(req BatchRequest) (BatchResponse, error) {
	ws := make([]ltc.Worker, len(req.Workers))
	for i, ww := range req.Workers {
		ws[i] = ww.Model()
	}
	recs, err := n.p.CheckInBatch(ws)
	resp := BatchResponse{Done: errors.Is(err, ltc.ErrPlatformDone)}
	if err != nil && !resp.Done {
		return BatchResponse{}, err
	}
	// The platform can complete exactly on the batch's last worker, in
	// which case CheckInBatch returns no error (nothing was truncated);
	// the final receipt still carries the done flag the response promises.
	if k := len(recs); k > 0 && recs[k-1].Done {
		resp.Done = true
	}
	if len(recs) > 0 { // none is "receipts":null on the wire, not []
		grants := 0
		for i := range recs {
			grants += len(recs[i].Assignments)
		}
		block := make([]Grant, 0, grants) // every receipt's grants, one allocation
		resp.Receipts = make([]Receipt, len(recs))
		for i, rec := range recs {
			resp.Receipts[i] = fromReceipt(rec, false, &block)
		}
	}
	return resp, nil
}

func (n platformNode) postTask(t TaskRequest) (TaskResponse, error) {
	id, err := n.p.PostTask(ltc.Task{Loc: geo.Point{X: t.X, Y: t.Y}})
	return TaskResponse{ID: int(id)}, err
}

func (n platformNode) retireTask(id int) error { return n.p.RetireTask(ltc.TaskID(id)) }

func (n platformNode) stats() any {
	p := n.p
	resolved, total := p.Progress()
	st := Stats{
		Algo:            n.algo,
		Shards:          p.Shards(),
		RequestedShards: n.requested,
		Balanced:        p.Balanced(),
		Latency:         p.Latency(),
		RelativeLatency: p.RelativeLatency(),
		WorkersSeen:     p.WorkersSeen(),
		Resolved:        resolved,
		Total:           total,
		Done:            p.Done(),
		Imbalance:       p.Imbalance(),
		Rebalanced:      p.Rebalancing(),
		Migrations:      p.Migrations(),
	}
	for _, sh := range p.ShardStats() {
		st.ShardStats = append(st.ShardStats, ShardStat{
			Tasks: sh.Tasks, Completed: sh.Completed, Retired: sh.Retired,
			Workers: sh.Workers, Offered: sh.Offered, QueueDepth: sh.QueueDepth,
			Latency: sh.Latency, MigratedIn: sh.MigratedIn, MigratedOut: sh.MigratedOut,
		})
		st.Tasks += sh.Tasks
	}
	return st
}
