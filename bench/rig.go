package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ltc"
)

// rig is one freshly built platform under test — with its servers, clients
// and event subscription where the workload has them — ready for its first
// check-in. A pass builds one, drives it and tears it down.
type rig interface {
	// feed issues one front-door call carrying workers [i, j) of the stream
	// on behalf of feeder g. n is how many check-ins the platform accepted,
	// done whether the pass is over. op is the feeder's trace of this call,
	// nil when tracing is off.
	feed(g, i, j int, op *opTrace) (n int, done bool, err error)
	// finish completes the stream after the last feed: Flush on the async
	// path, the plan's trailing expiries on the dynamic one.
	finish() error
	// shadow replays workers [i, j) on the twin and records its spans under
	// op. Only called with tracing on.
	shadow(g, i, j int, op *opTrace)
	// nextEvent blocks for the subscriber's next event; ok is false once the
	// subscription has been closed by teardown.
	nextEvent() (e event, ok bool)
	// final reads the drained platform's state for the audit.
	final() (*finalState, error)
	// verify runs the verification pass's extra checks on the drained rig,
	// which a single feeder fed the first `fed` workers of the stream in
	// order.
	verify(fed int) error
	// extras reports counters the pass cannot see from the front door;
	// called after teardown with the pass's complete ledger.
	extras(l *ledger) rigExtras
	// teardown closes subscriptions, connections, listeners and platforms.
	teardown()
}

// rigExtras carries per-rig counters into the pass result.
type rigExtras struct {
	lifecycleCalls int       // PostTask + RetireTask calls issued
	lifecycleNs    []int64   // their latencies, latency passes only
	imbalance      float64   // Platform.Imbalance at drain
	migrations     int       // Platform.Migrations at drain
	statsNs        []int64   // GET /stats round trips
	nodeShareMax   float64   // busiest node's share of check-ins
	reqBytes       int64     // traced: request body bytes sent
	respBytes      int64     // traced: response body bytes read
	requests       int64     // traced: HTTP requests made
	redirects      int64     // traced: HTTP 421 responses seen
	flushNs        int64     // async: Flush wait
	sseLagNs       []float64 // traced: handler start → SSE frame received
	mergeLagNs     []float64 // traced: node stream → merged stream
}

// eventBuffer is every platform's subscriber buffer. A benchmark feeder can
// keep both cores busy for a scheduler quantum while completions pile up, so
// the default 256 would drop events; dropped events are failures here.
const eventBuffer = 1 << 14

// rebalanceFor mirrors `ltcbench -exp scenarios -rebalance`: a forecast
// window of a sixteenth of the stream, so the rebalancer folds and moves
// several times inside one pass.
func rebalanceFor(stream int) ltc.RebalanceOptions {
	return ltc.RebalanceOptions{Interval: max(stream/16, 64), Threshold: 1.2, MaxMoves: 4, Alpha: 1}
}

// platformOptions are the NewPlatform options a workload's spec implies.
func platformOptions(spec *workloadSpec, stream int) []ltc.Option {
	opts := []ltc.Option{ltc.WithShards(spec.Shards), ltc.WithEventBuffer(eventBuffer)}
	if spec.Balanced {
		opts = append(opts, ltc.WithBalancedShards())
	}
	if spec.Churn {
		// The layout is packed from the causal stream prefix, which drifting
		// traffic makes stale — the regime live re-sharding corrects.
		opts = append(opts, ltc.WithLoadPrefix(stream/8), ltc.WithRebalance(rebalanceFor(stream)))
	}
	return opts
}

// libRig drives an in-process ltc.Platform through one of its four front
// doors.
type libRig struct {
	spec  *workloadSpec
	in    *inputs
	p     *ltc.Platform
	sub   *ltc.Subscription
	k     int
	tw    *twin
	recs  [feeders][]ltc.Receipt // CheckInBatchInto's recycled receipts
	overK atomic.Int64
	timed bool // latency pass: time lifecycle calls

	// The dynamic workload's plan cursor. The feeder that claims arrival i
	// fires the plan's events for tick i under planMu.
	planMu       sync.Mutex
	next         int
	nextArrival  atomic.Int64
	pendingPosts atomic.Int64
	lifecycle    []int64
	lifecycleN   int
	flushNs      int64
}

func newLibRig(in *inputs, tr *tracer, timed bool) (*libRig, error) {
	p, err := ltc.NewPlatform(in.in, ltc.AAM, platformOptions(in.spec, len(in.in.Workers))...)
	if err != nil {
		return nil, err
	}
	r := &libRig{spec: in.spec, in: in, p: p, k: in.in.K, timed: timed}
	r.sub = p.Subscribe()
	r.nextArrival.Store(math.MaxInt64)
	if in.churn != nil {
		for _, e := range in.churn.Events {
			if e.Kind == ltc.EventPost {
				r.pendingPosts.Add(1)
			}
		}
		if len(in.churn.Events) > 0 {
			r.nextArrival.Store(int64(in.churn.Events[0].Arrival))
		}
	}
	if tr != nil {
		if r.tw, err = newTwin(in, tr); err != nil {
			r.teardown()
			return nil, err
		}
	}
	return r, nil
}

func (r *libRig) noteGrants(n int) {
	if n > r.k {
		r.overK.Add(1)
	}
}

func (r *libRig) feed(g, i, j int, _ *opTrace) (int, bool, error) {
	ws := r.in.in.Workers
	switch r.spec.Mode {
	case modePerCall:
		rec, err := r.p.CheckIn(ws[i])
		if err != nil {
			if errors.Is(err, ltc.ErrPlatformDone) {
				return 0, true, nil
			}
			return 0, false, err
		}
		r.noteGrants(len(rec.Assignments))
		return 1, rec.Done, nil
	case modeAsync:
		if r.p.Done() {
			return 0, true, nil
		}
		if err := r.p.CheckInAsync(ws[i]); err != nil {
			return 0, false, err
		}
		return 1, false, nil
	case modeBatch:
		out, err := r.p.CheckInBatchInto(ws[i:j], r.recs[g][:0])
		r.recs[g] = out
		for k := range out {
			r.noteGrants(len(out[k].Assignments))
		}
		if err != nil {
			if errors.Is(err, ltc.ErrPlatformDone) {
				return len(out), true, nil
			}
			return len(out), false, err
		}
		return len(out), len(out) > 0 && out[len(out)-1].Done, nil
	case modeDynamic:
		n := 1
		rec, err := r.p.CheckIn(ws[i])
		if err != nil {
			// The platform can be momentarily complete between two posts;
			// that bounce is the one expected error.
			if !errors.Is(err, ltc.ErrPlatformDone) {
				return 0, false, err
			}
			n = 0
		}
		r.noteGrants(len(rec.Assignments))
		if err := r.fire(i + 1); err != nil {
			return n, false, err
		}
		return n, r.p.Done() && r.pendingPosts.Load() == 0, nil
	}
	return 0, false, fmt.Errorf("libRig: unknown mode %q", r.spec.Mode)
}

// fire issues every not yet fired plan event due at or before tick.
func (r *libRig) fire(tick int) error {
	if int64(tick) < r.nextArrival.Load() {
		return nil
	}
	r.planMu.Lock()
	defer r.planMu.Unlock()
	evs := r.in.churn.Events
	for r.next < len(evs) && evs[r.next].Arrival <= tick {
		e := evs[r.next]
		r.next++
		var t0 time.Time
		if r.timed {
			t0 = time.Now()
		}
		switch e.Kind {
		case ltc.EventPost:
			r.pendingPosts.Add(-1)
			id, err := r.p.PostTask(e.Task)
			if err != nil {
				return err
			}
			if id != e.Task.ID {
				return fmt.Errorf("posted task got ID %d, plan expected %d", id, e.Task.ID)
			}
			if r.tw != nil {
				r.tw.post(e.Task)
			}
		case ltc.EventRetire:
			if err := r.p.RetireTask(e.ID); err != nil {
				return err
			}
			if r.tw != nil {
				r.tw.retire(e.ID)
			}
		}
		if r.timed {
			r.lifecycle = append(r.lifecycle, int64(time.Since(t0)))
		}
		r.lifecycleN++
	}
	if r.next < len(evs) {
		r.nextArrival.Store(int64(evs[r.next].Arrival))
	} else {
		r.nextArrival.Store(math.MaxInt64)
	}
	return nil
}

func (r *libRig) finish() error {
	switch r.spec.Mode {
	case modeAsync:
		t0 := time.Now()
		r.p.Flush()
		r.flushNs = int64(time.Since(t0))
	case modeDynamic:
		// Expiries scheduled past the end of the feed still land, so every
		// task ends completed or retired.
		return r.fire(math.MaxInt)
	}
	// End-of-stream expiry: an instance can hold a task so remote that the
	// whole worker stream does not complete it. Whatever is still open when
	// the stream runs out expires, so every pass of every seed ends with
	// each task completed or retired.
	if r.p.Done() {
		return nil
	}
	for _, st := range r.p.TaskStatuses() {
		if !st.Completed && !st.Retired {
			if err := r.p.RetireTask(st.ID); err != nil {
				return err
			}
			r.lifecycleN++
		}
	}
	return nil
}

func (r *libRig) shadow(_, i, j int, op *opTrace) {
	r.tw.shadowWorkers(op, 0, 0, r.in.in.Workers[i:j])
}

func (r *libRig) nextEvent() (event, bool) {
	e, ok := <-r.sub.Events()
	if !ok {
		return event{}, false
	}
	out := event{task: int(e.Task), worker: e.Worker, postIndex: e.PostIndex, seq: e.Seq}
	switch e.Kind {
	case ltc.EventTaskCompleted:
		out.kind = evCompleted
	case ltc.EventTaskPosted:
		out.kind = evPosted
	case ltc.EventTaskRetired:
		out.kind = evRetired
	case ltc.EventPlatformDone:
		out.kind = evDone
	}
	return out, true
}

// platformFinal reads one in-process platform's drained state.
func platformFinal(p *ltc.Platform) *finalState {
	fs := &finalState{
		done: p.Done(), latency: p.Latency(), relLatency: p.RelativeLatency(),
		workersSeen: p.WorkersSeen(), doneNotices: 1,
	}
	fs.resolved, fs.total = p.Progress()
	credits := p.Credits(nil)
	sts := p.TaskStatuses()
	fs.tasks = make([]taskFinal, len(sts))
	for i, st := range sts {
		fs.tasks[i] = taskFinal{completed: st.Completed, retired: st.Retired, postIndex: st.PostIndex}
		if i < len(credits) {
			fs.tasks[i].credit = credits[i]
		}
	}
	return fs
}

func (r *libRig) final() (*finalState, error) {
	fs := platformFinal(r.p)
	fs.dropped, fs.overK = r.sub.Dropped(), int(r.overK.Load())
	return fs, nil
}

// verify holds a static workload's merged arrangement against the source
// instance: capacity, eligibility, duplicates and completion. (Churn has no
// single source instance to validate against; its pass audit stands alone.)
func (r *libRig) verify(int) error {
	if r.spec.Churn {
		return nil
	}
	allCompleted := true
	for _, st := range r.p.TaskStatuses() {
		allCompleted = allCompleted && st.Completed
	}
	return r.p.Arrangement().Validate(r.in.in, allCompleted)
}

func (r *libRig) extras(*ledger) rigExtras {
	return rigExtras{
		lifecycleCalls: r.lifecycleN, lifecycleNs: r.lifecycle,
		imbalance: r.p.Imbalance(), migrations: r.p.Migrations(), flushNs: r.flushNs,
	}
}

func (r *libRig) teardown() {
	r.sub.Close()
	_ = r.p.Close() // always nil
	if r.tw != nil {
		r.tw.close()
	}
}
