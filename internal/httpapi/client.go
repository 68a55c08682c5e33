package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Client is a typed client for the ltcd gateway, used by the ltcbench
// loadgen and the end-to-end tests. The zero HTTP client is replaced with
// http.DefaultClient.
type Client struct {
	// Base is the gateway's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// doJSON runs one request with an optional JSON body and decodes the JSON
// response into out (when non-nil). Non-2xx responses decode the error
// body into a *httpError-backed error. The response is read whole on every
// path, which is what lets the connection — and the request's buffer — be
// used again.
func (c *Client) doJSON(method, path string, body, out any) error {
	var rd io.Reader
	var reqBuf *wireBuf
	if body != nil {
		reqBuf = getBuf()
		var err error
		if reqBuf.b, err = encodeJSON(reqBuf.b, body); err != nil {
			putBuf(reqBuf)
			return err
		}
		rd = bytes.NewReader(reqBuf.b)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	respBuf := getBuf()
	defer putBuf(respBuf)
	err = respBuf.readAll(resp.Body)
	// The transport may read the request's body for as long as the exchange
	// lasts: its buffer goes back once the response is read to its end and
	// closed, and on no other path.
	if cerr := resp.Body.Close(); err == nil && cerr == nil && reqBuf != nil {
		putBuf(reqBuf)
	}
	if resp.StatusCode == http.StatusMisdirectedRequest {
		// A cluster node refusing traffic it does not own: surface the typed
		// redirect so routing clients can heal their table and retry.
		var rb redirectBody
		if decodeJSON(respBuf.b, &rb) == nil {
			return &RedirectError{Owner: rb.Owner, Index: rb.Index, Msg: rb.Error}
		}
		return fmt.Errorf("%s %s: HTTP 421 with unreadable redirect body", method, path)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var he httpError
		if decodeJSON(respBuf.b, &he) == nil && he.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, he.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err != nil || out == nil {
		return err
	}
	return decodeJSON(respBuf.b, out)
}

// CheckIn posts one worker and returns its receipt.
func (c *Client) CheckIn(w Worker) (Receipt, error) {
	var rec Receipt
	err := c.doJSON(http.MethodPost, "/checkin", w, &rec)
	return rec, err
}

// CheckInBatch posts a batch; done reports whether the platform completed
// (possibly truncating the receipts to the ingested prefix).
func (c *Client) CheckInBatch(ws []Worker) (recs []Receipt, done bool, err error) {
	var resp BatchResponse
	if err := c.doJSON(http.MethodPost, "/checkin/batch", BatchRequest{Workers: ws}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Receipts, resp.Done, nil
}

// RetireTask retires the task with the given ID.
func (c *Client) RetireTask(id int) error {
	return c.doJSON(http.MethodDelete, fmt.Sprintf("/tasks/%d", id), nil, nil)
}

// Stats fetches the platform's progress snapshot.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.doJSON(http.MethodGet, "/stats", nil, &st)
	return st, err
}

// EventStream is an open GET /events subscription. It is single-reader;
// Close (or cancelling the OpenEvents context) ends it.
type EventStream struct {
	resp    *http.Response
	sc      *bufio.Scanner
	data    []byte  // data lines of the frame being accumulated, joined with "\n"
	lines   int     // how many
	pending []Event // decoded but not yet returned (multi-event frames)
	closed  atomic.Bool
}

// OpenEvents subscribes to the node's event stream from its first event:
// the node replays its recorded log, then follows the live one. Cancel ctx
// or call Close to end the stream.
func (c *Client) OpenEvents(ctx context.Context) (*EventStream, error) {
	return c.OpenEventsSince(ctx, 0)
}

// OpenEventsSince subscribes to the event stream resuming after per-node
// sequence number since. Every node records its whole event history, so
// since > 0 replays everything the caller has not yet folded — the resume
// half of the exactly-once cluster audit. A since ahead of the node's log
// (the node restarted) is an HTTP 400.
func (c *Client) OpenEventsSince(ctx context.Context, since uint64) (*EventStream, error) {
	path := "/events"
	if since > 0 {
		path = fmt.Sprintf("/events?since=%d", since)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		return nil, fmt.Errorf("GET /events: HTTP %d", resp.StatusCode)
	}
	return newEventStream(resp), nil
}

// newEventStream reads resp's body as an SSE stream.
func newEventStream(resp *http.Response) *EventStream {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &EventStream{resp: resp, sc: sc}
}

// Next blocks for the next event. It returns io.EOF when the stream ends —
// including via Close or context cancellation.
//
// Framing follows the SSE spec: every "data:" line of a frame is kept and
// the payload is the lines joined with "\n" (earlier versions overwrote it,
// silently dropping all but the last line), comment lines (":...") are
// ignored, and a blank line dispatches the frame. A payload carrying
// several JSON values — a server that streams events without blank-line
// separators — yields every event, in order, across successive Next calls.
func (s *EventStream) Next() (Event, error) {
	if len(s.pending) > 0 {
		e := s.pending[0]
		s.pending = s.pending[1:]
		return e, nil
	}
	for s.sc.Scan() {
		line := s.sc.Bytes()
		switch {
		case len(line) == 0:
			if s.lines == 0 {
				continue // separator between frames we didn't accumulate
			}
			payload := s.data
			s.data, s.lines = s.data[:0], 0
			// The frame the gateway writes: one event and nothing after it.
			var e Event
			if n, ok := e.scanJSON(payload); ok && len(bytes.TrimSpace(payload[n:])) == 0 {
				return e, nil
			}
			evs, err := decodeFrame(payload)
			if err != nil {
				return Event{}, err
			}
			if len(evs) == 0 {
				continue
			}
			s.pending = append(s.pending, evs[1:]...)
			return evs[0], nil
		case line[0] == ':':
			// Comment line (keep-alives), ignored per spec.
		case bytes.HasPrefix(line, []byte("data:")):
			v := bytes.TrimPrefix(line, []byte("data:"))
			// At most one leading space after the colon is framing, not
			// payload; any further whitespace belongs to the data.
			s.addData(bytes.TrimPrefix(v, []byte(" ")))
		case string(line) == "data":
			s.addData(nil)
		}
	}
	if err := s.sc.Err(); err != nil && !s.closed.Load() && !isClosedErr(err) {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// addData keeps one data line of the frame being accumulated (the scanner's
// line is gone with the next Scan).
func (s *EventStream) addData(line []byte) {
	if s.lines > 0 {
		s.data = append(s.data, '\n')
	}
	s.data = append(s.data, line...)
	s.lines++
}

// decodeFrame decodes the joined data payload of one SSE frame that is not
// one event in the gateway's own spelling. A frame normally holds exactly
// one JSON event, but pathological framing (several complete events between
// two blank lines) decodes to all of them so none is dropped.
func decodeFrame(payload []byte) ([]Event, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	var evs []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return nil, fmt.Errorf("bad event frame %q: %w", payload, err)
		}
		evs = append(evs, e)
	}
}

// Close tears the subscription down. A Next blocked on the wire unblocks
// with io.EOF.
func (s *EventStream) Close() error {
	s.closed.Store(true)
	return s.resp.Body.Close()
}

// isClosedErr reports whether the scanner error is the expected result of
// tearing the stream down rather than a transport failure: a cancelled
// request context, or a connection closed under the reader. Matched with
// errors.Is — net.ErrClosed is the canonical sentinel for reads on closed
// connections — never by error-string comparison. Reads that race with a
// local Close are covered by the EventStream.closed flag instead, because
// net/http reports those with an unexported, unwrapped error.
func isClosedErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, net.ErrClosed)
}

// WaitReady polls GET /stats until the gateway answers, backing off between
// attempts with backoffDelay. It is the readiness probe a supervisor runs
// against freshly-spawned gateways; the capped-exponential-with-jitter
// schedule keeps a loadgen supervising several cluster nodes from hammering
// a slow booter in lockstep. Returns when the gateway is ready, or with the
// last probe error once ctx ends.
func (c *Client) WaitReady(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		_, err := c.Stats()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("httpapi: gateway %s not ready: %w (last probe: %v)", c.Base, ctx.Err(), err)
		case <-time.After(backoffDelay(attempt)):
		}
	}
}

// backoffDelay is the retry schedule shared by every readiness probe and
// stream-reconnect loop: exponential from 25ms, capped at 1s, with a
// uniform ±25% jitter so concurrent retriers (a loadgen supervising N
// nodes, N clients probing one node) decorrelate instead of synchronizing.
func backoffDelay(attempt int) time.Duration {
	if attempt > 6 {
		attempt = 6 // 25ms << 6 = 1.6s; the cap below trims it to 1s
	}
	d := 25 * time.Millisecond << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	// ±25%: scale by a factor drawn uniformly from [0.75, 1.25).
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}
