package dispatch

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// TestAsyncBackpressure: a tiny queue still ingests the whole stream —
// backpressure blocks enqueues instead of dropping them — and Flush is the
// completion point.
func TestAsyncBackpressure(t *testing.T) {
	in := testInstance(t, 0.02)
	d, err := New(in, 4, lafFactory, Options{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var cursor, enqueued atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) || d.Done() {
					return
				}
				if err := d.CheckInAsync(in.Workers[i]); err != nil {
					t.Errorf("CheckInAsync: %v", err)
					return
				}
				enqueued.Add(1)
			}
		}()
	}
	wg.Wait()
	d.Flush()
	if got := d.Arrived(); got != int(enqueued.Load()) {
		t.Fatalf("arrived %d, enqueued %d", got, enqueued.Load())
	}
	if !d.Done() {
		t.Fatal("incomplete after full stream")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Routed counts cover exactly the ingested workers in async mode.
	tot := 0
	for _, s := range d.ShardStats() {
		tot += s.Workers
	}
	if tot != d.Arrived() {
		t.Fatalf("shard worker counts %d != arrivals %d", tot, d.Arrived())
	}
}

// stallFull locks shard 0's mutex — stalling its drainer inside the run it
// just popped — and fills the queue to capacity behind it. It returns how
// many workers (a prefix of ws) the dispatcher accepted; the caller unlocks
// d.shards[0].mu to let the drainer go on.
func stallFull(t *testing.T, d *Dispatcher, ws []model.Worker) int {
	t.Helper()
	d.shards[0].mu.Lock()
	if err := d.CheckInAsync(ws[0]); err != nil {
		t.Fatal(err)
	}
	q := d.queues[0]
	for q.depth() != 0 { // the drainer took ws[0] and now waits for the shard mutex
		runtime.Gosched()
	}
	for _, w := range ws[1 : 1+q.cap] {
		if err := d.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
	}
	return 1 + q.cap
}

// blockOne starts one more enqueue against shard 0's full queue and returns
// once it is blocked on backpressure; the channel delivers its result. An
// enqueue that queues its worker instead of blocking fails the test.
// "Blocked" is read off the queue under q.mu: push counts itself in flight
// and either enters notFull.Wait or appends under one hold of q.mu, so once
// the in-flight count shows the enqueue and the depth has not moved, it has
// joined the condition's notify list and no later Broadcast can miss it.
func blockOne(t *testing.T, d *Dispatcher, w model.Worker) <-chan error {
	t.Helper()
	q := d.queues[0]
	look := func() (inflight, depth int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.inflight, len(q.buf)
	}
	inflight0, depth0 := look()
	blocked := make(chan error, 1)
	go func() { blocked <- d.CheckInAsync(w) }()
	for {
		inflight, depth := look()
		if depth != depth0 {
			t.Fatalf("enqueue into a full queue was queued at depth %d instead of blocking", depth)
		}
		if inflight != inflight0 {
			return blocked
		}
		runtime.Gosched()
	}
}

// TestQueueCapIsExact: a queue built with QueueCap n holds exactly n — with
// the drainer stalled, n further enqueues return and the next one blocks.
func TestQueueCapIsExact(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 13)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	if accepted := stallFull(t, d, in.Workers); accepted != 1+3 {
		t.Fatalf("accepted %d workers, want the stalled one plus QueueCap = 3", accepted)
	}
	if depth := d.queues[0].depth(); depth != 3 {
		t.Fatalf("queue depth %d, want 3", depth)
	}
	blocked := blockOne(t, d, in.Workers[4])
	d.shards[0].mu.Unlock()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.Arrived(); got != 5 {
		t.Fatalf("arrived %d, want 5", got)
	}
}

// TestAsyncCloseSemantics: Close refuses later enqueues, releases blocked
// ones with ErrClosed, ingests the backlog, and is idempotent. Flush on an
// untouched async path returns immediately.
func TestAsyncCloseSemantics(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 17)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Flush() // async never used: immediate no-op

	if err := d.CheckInAsync(model.Worker{Index: 0}); !errors.Is(err, ErrBadWorkerIndex) {
		t.Fatalf("bad index err = %v", err)
	}

	queued := stallFull(t, d, in.Workers)
	blocked := blockOne(t, d, in.Workers[queued])
	q := d.queues[0]
	q.mu.Lock()
	inflight := q.inflight
	q.mu.Unlock()
	if inflight != queued+1 {
		t.Fatalf("in flight %d, want %d: the blocked enqueue is in flight", inflight, queued+1)
	}

	closed := make(chan struct{})
	go func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		close(closed)
	}()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked enqueue err = %v, want ErrClosed", err)
	}
	d.shards[0].mu.Unlock() // let the drainer ingest the backlog and exit
	<-closed

	if err := d.CheckInAsync(in.Workers[4]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enqueue err = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	d.Flush()
	// The queued workers were ingested, the refused one was not.
	if got := d.Arrived(); got != queued {
		t.Fatalf("arrived %d, want %d", got, queued)
	}
	// The synchronous paths survive Close.
	if _, err := d.CheckIn(in.Workers[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckInBatch(in.Workers[6:9]); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncProducerParkWake: an enqueue blocked on a full queue returns nil
// once the drainer frees room, and its worker arrives.
func TestAsyncProducerParkWake(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 23)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued := stallFull(t, d, in.Workers)
	blocked := blockOne(t, d, in.Workers[queued])
	d.shards[0].mu.Unlock() // the drainer resumes and takes the backlog
	if err := <-blocked; err != nil {
		t.Fatalf("blocked enqueue err = %v, want nil", err)
	}
	d.Flush()
	if got := d.Arrived(); got != queued+1 {
		t.Fatalf("arrived %d, want %d", got, queued+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncDrainerParkWake: a drainer that found its queue empty is brought
// back by the next enqueue.
func TestAsyncDrainerParkWake(t *testing.T) {
	in := testInstance(t, 0.02)
	d, err := New(in, 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range in.Workers[:3] {
		if err := d.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
		d.Flush() // the queue is empty again: the drainer goes back to waiting
		if got := d.Arrived(); got != i+1 {
			t.Fatalf("arrived %d, want %d", got, i+1)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCloseOnIdleDispatcher: closing before any async use is a no-op
// that still refuses later enqueues (drainers are never spawned).
func TestAsyncCloseOnIdleDispatcher(t *testing.T) {
	in := testInstance(t, 0.01)
	d, err := New(in, 2, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInAsync(in.Workers[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if d.started.Load() {
		t.Fatal("drainers spawned on a closed dispatcher")
	}
}

// TestAsyncLifecycleStress is the -race stress test of the async pipeline:
// feeder goroutines stream CheckInAsync while churners post and retire
// tasks across shards and a flusher calls Flush repeatedly. Invariants: no
// lost workers (after the final Flush every enqueued worker is an arrival),
// posted IDs stay dense and unique, progress is monotone, and draining
// every open task completes the platform.
func TestAsyncLifecycleStress(t *testing.T) {
	in := lifecycleInstance(60, 3000, 150, 77)
	d, err := New(in, 8, aamFactory, Options{QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		enqueued atomic.Int64
		postIDs  sync.Map
		nPosts   atomic.Int64
	)
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	go func() { // progress monitor: resolved and total never decrease
		defer monitorWG.Done()
		lastResolved, lastTotal := 0, 0
		for {
			select {
			case <-monitorStop:
				return
			default:
			}
			resolved, total := d.Progress()
			if resolved < lastResolved || total < lastTotal {
				t.Errorf("progress went backwards: %d/%d after %d/%d", resolved, total, lastResolved, lastTotal)
				return
			}
			lastResolved, lastTotal = resolved, total
			// Imbalance locks shards one at a time; the max-over-mean of
			// monotone counts stays in [1, shards] even without an atomic
			// cut, churn and async drain included.
			if im := d.Imbalance(); im < 1 || im > float64(d.NumShards()) {
				t.Errorf("mid-churn Imbalance() = %v, want within [1, %d]", im, d.NumShards())
				return
			}
			runtime.Gosched()
		}
	}()

	for g := 0; g < 4; g++ { // async feeders
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) {
					return
				}
				if err := d.CheckInAsync(in.Workers[i]); err != nil {
					t.Errorf("CheckInAsync: %v", err)
					return
				}
				enqueued.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ { // churners
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+7, 99))
			for i := 0; i < 60; i++ {
				if rng.IntN(3) > 0 {
					loc := geo.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150}
					gid, err := d.PostTask(model.Task{Loc: loc})
					if err != nil {
						t.Errorf("PostTask: %v", err)
						return
					}
					if _, dup := postIDs.LoadOrStore(gid, struct{}{}); dup {
						t.Errorf("duplicate posted ID %d", gid)
						return
					}
					nPosts.Add(1)
				} else {
					_, total := d.Progress()
					if err := d.RetireTask(model.TaskID(rng.IntN(total))); err != nil {
						t.Errorf("RetireTask: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // flusher: Flush must be safe at any moment
		defer wg.Done()
		for i := 0; i < 20; i++ {
			d.Flush()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	d.Flush()
	close(monitorStop)
	monitorWG.Wait()

	if got := d.Arrived(); got != int(enqueued.Load()) {
		t.Fatalf("arrived %d, enqueued %d — lost workers", got, enqueued.Load())
	}
	statuses := d.TaskStatuses()
	wantTotal := len(in.Tasks) + int(nPosts.Load())
	if len(statuses) != wantTotal {
		t.Fatalf("%d statuses, want %d", len(statuses), wantTotal)
	}
	if credits := d.Credits(nil); len(credits) != wantTotal {
		t.Fatalf("%d credits, want %d", len(credits), wantTotal)
	}
	for id, st := range statuses { // drain: retire everything still open
		if !st.Completed && !st.Retired {
			if err := d.RetireTask(model.TaskID(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !d.Done() {
		t.Fatal("not done after retiring all open tasks")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	resolved, total := d.Progress()
	if resolved != total || total != wantTotal {
		t.Fatalf("final progress %d/%d, want %d/%d", resolved, total, wantTotal, wantTotal)
	}
}
