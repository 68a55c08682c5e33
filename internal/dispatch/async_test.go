package dispatch

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// TestAsyncSingleShardMatchesSequential: one shard, one enqueuer — the
// async path is a sequential feed behind a queue, so after Flush every
// observable must match the per-call replay bit for bit.
func TestAsyncSingleShardMatchesSequential(t *testing.T) {
	in := testInstance(t, 0.02)
	want, err := New(in, 1, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	feedSequential(t, want, in.Workers)

	d, err := New(in, 1, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	enqueued := 0
	for _, w := range in.Workers {
		if d.Done() {
			break
		}
		if err := d.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
		enqueued++
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("async replay incomplete")
	}
	// The async feeder races the drainer on Done, so it may enqueue a few
	// workers past completion; they are bounced arrivals. Everything else
	// matches exactly.
	if got := d.Arrived(); got != enqueued {
		t.Fatalf("arrived %d, enqueued %d — lost workers", got, enqueued)
	}
	if want.Latency() != d.Latency() {
		t.Fatalf("latency %d, want %d", d.Latency(), want.Latency())
	}
	wa, ga := want.Arrangement(), d.Arrangement()
	if len(wa.Pairs) != len(ga.Pairs) {
		t.Fatalf("%d pairs, want %d", len(ga.Pairs), len(wa.Pairs))
	}
	for i := range wa.Pairs {
		if wa.Pairs[i] != ga.Pairs[i] {
			t.Fatalf("pair %d: %+v, want %+v", i, ga.Pairs[i], wa.Pairs[i])
		}
	}
	ws, gs := want.TaskStatuses(), d.TaskStatuses()
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("status %d: %+v, want %+v", i, gs[i], ws[i])
		}
	}
}

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

// askedCtx reports, by closing asked, the first time anyone asks for its Done
// channel. An enqueue does so only when it is about to wait on a full queue,
// with the queue mutex held — so a test that sees asked closed and then gets
// the queue mutex knows the enqueue sits in notFull.Wait (Cond.Wait joins the
// notify list before it unlocks). Polling d.pending alone would leave the
// enqueue anywhere between its pending count and the wait.
type askedCtx struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *askedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// blockOne starts one more enqueue against shard 0's full queue and returns
// once it is blocked on backpressure; the channel delivers its result. An
// enqueue that returns instead of blocking fails the test.
func blockOne(t *testing.T, d *Dispatcher, ctx context.Context, w model.Worker) <-chan error {
	t.Helper()
	ac := &askedCtx{Context: ctx, asked: make(chan struct{})}
	blocked := make(chan error, 1)
	go func() { blocked <- d.CheckInAsyncCtx(ac, w) }()
	select {
	case <-ac.asked:
	case err := <-blocked:
		t.Fatalf("enqueue into a full queue returned %v instead of blocking", err)
	}
	q := d.queues[0]
	q.mu.Lock()
	q.mu.Unlock()
	return blocked
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
	blocked := blockOne(t, d, context.Background(), in.Workers[4])
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
	blocked := blockOne(t, d, context.Background(), in.Workers[queued])
	if got := d.pending.Load(); got != int64(queued+1) {
		t.Fatalf("pending %d, want %d: the blocked enqueue is in flight", got, queued+1)
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
	blocked := blockOne(t, d, context.Background(), in.Workers[queued])
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

// TestAsyncProducerParkCancel: an enqueue blocked on a full queue with a
// cancellable context returns ctx.Err() when the context fires, without
// enqueuing.
func TestAsyncProducerParkCancel(t *testing.T) {
	in := lifecycleInstance(10, 50, 60, 29)
	d, err := New(in, 1, lafFactory, Options{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued := stallFull(t, d, in.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	blocked := blockOne(t, d, ctx, in.Workers[queued])
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked enqueue err = %v, want context.Canceled", err)
	}
	d.shards[0].mu.Unlock()
	d.Flush()
	if got := d.Arrived(); got != queued {
		t.Fatalf("arrived %d, want %d", got, queued)
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
