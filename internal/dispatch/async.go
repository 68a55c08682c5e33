package dispatch

import (
	"context"
	"fmt"
	"sync"

	"ltc/internal/model"
)

// shardQueue is one shard's bounded CheckInAsync buffer: a slice under a
// mutex. Producers append while there is room and wait on notFull while
// there is none; the shard's drainer — the single consumer — waits on
// notEmpty and takes the whole backlog by swapping in the emptied slice of
// its previous run, so two cap-sized slices ping-pong for the queue's
// lifetime and the steady state allocates nothing. Every closed check runs
// under mu, so a drainer that saw "closed and empty" knows every later
// producer sees closed too and is refused: Close loses nothing.
type shardQueue struct {
	//ltc:lock queue
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []model.Worker //ltc:arena
	cap      int
}

func newShardQueue(capacity int) *shardQueue {
	q := &shardQueue{buf: make([]model.Worker, 0, capacity), cap: capacity}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// depth reports how many workers are queued but not yet taken by the drainer.
func (q *shardQueue) depth() int {
	q.mu.Lock()
	n := len(q.buf)
	q.mu.Unlock()
	return n
}

// wakeAll wakes both sides of the queue — the close broadcast and the
// context-cancellation callback (both sides re-check their exit condition
// under the mutex, so taking it here means no wake-up can be lost).
func (q *shardQueue) wakeAll() {
	q.mu.Lock()
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// push enqueues one worker, blocking while the queue is full. It fails with
// ErrClosed once the dispatcher closes and with ctx.Err() once ctx is done;
// closed is checked first, so close wins over both a freed slot and a
// cancellation.
//
//ltc:noalloc
func (q *shardQueue) push(ctx context.Context, d *Dispatcher, w model.Worker) error {
	var stopWake func() bool
	q.mu.Lock()
	for len(q.buf) == q.cap && !d.closed.Load() && ctx.Err() == nil {
		if stopWake == nil && ctx.Done() != nil {
			// About to wait on a cancellable context: have ctx wake the wait
			// when it fires. The callback takes the queue mutex, so it cannot
			// run between this check and the Wait — no lost wake-up.
			stopWake = context.AfterFunc(ctx, q.wakeAll) //ltclint:ignore noalloc full-queue slow path only — the caller is about to block, so one method-value allocation is noise
		}
		q.notFull.Wait()
	}
	var err error
	if d.closed.Load() {
		err = ErrClosed
	} else if err = ctx.Err(); err == nil {
		q.buf = append(q.buf, w)
		if len(q.buf) == 1 {
			q.notEmpty.Signal()
		}
	}
	q.mu.Unlock()
	if stopWake != nil {
		stopWake()
	}
	return err
}

// pop blocks while the queue is empty and the dispatcher open, then hands
// the drainer the entire backlog by swapping buffers: run, the drainer's
// previous and fully ingested run, becomes the queue's empty buffer. An
// empty result — the drainer's exit signal — means closed and empty.
//
//ltc:noalloc
func (q *shardQueue) pop(d *Dispatcher, run []model.Worker) []model.Worker {
	q.mu.Lock()
	for len(q.buf) == 0 && !d.closed.Load() {
		q.notEmpty.Wait()
	}
	run, q.buf = q.buf, run[:0]
	q.notFull.Broadcast()
	q.mu.Unlock()
	return run
}

// CheckInAsync routes the worker into its spatial shard's bounded queue
// and returns without waiting for ingestion — the fire-and-forget
// counterpart of CheckIn for callers that don't need the assignment list
// back (it stays observable through Arrangement, Credits and TaskStatuses).
// The first call starts one drainer goroutine per shard; each drainer pops
// runs of queued workers and ingests every run under a single shard-mutex
// acquisition, which is where batching beats per-call CheckIn. Within a
// shard workers are ingested in enqueue order; across shards there is no
// order, exactly as with concurrent CheckIn calls.
//
// The call blocks while the shard's queue is full (backpressure, bounded by
// Options.QueueCap) and fails with ErrClosed once Close has been called —
// also when the block is interrupted by a concurrent Close. Workers
// enqueued after the platform completed are ingested as bounced arrivals,
// mirroring CheckIn's ErrDone accounting. Safe for concurrent use.
//
// CheckInAsync cannot be cancelled while blocked; use CheckInAsyncCtx when
// the enqueue must respect a deadline or cancellation.
func (d *Dispatcher) CheckInAsync(w model.Worker) error {
	return d.CheckInAsyncCtx(context.Background(), w)
}

// CheckInAsyncCtx is CheckInAsync with cancellable backpressure: while the
// shard's queue is full the call blocks until a slot frees, the dispatcher
// closes (ErrClosed), or ctx is done — in which case the worker is NOT
// enqueued and ctx.Err() is returned. A context that is already done fails
// the call before anything is queued. Cancellation never loses an accepted
// worker: a nil error means the worker is queued and a later Flush will
// observe it; a non-nil error means the platform never saw it. Safe for
// concurrent use.
func (d *Dispatcher) CheckInAsyncCtx(ctx context.Context, w model.Worker) error {
	if w.Index < 1 {
		return fmt.Errorf("%w: got %d", ErrBadWorkerIndex, w.Index)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d.closed.Load() {
		return ErrClosed
	}
	d.ensureDrainers()
	// Routing (and the rebalancer's arrival forecast) happens at enqueue
	// time; a tile migration between enqueue and drain leaves the worker
	// draining at the old owner — a benign misroute, see MigrateTile.
	q := d.queues[d.locate(w.Loc)]
	d.pending.Add(1)
	err := q.push(ctx, d, w)
	if err != nil {
		d.retirePending(1)
	}
	return err
}

// Flush blocks until every worker enqueued by CheckInAsync before the call
// has been fully ingested: its assignments are in the arrangement and all
// counters (latency, progress, arrivals) reflect it, matching what the same
// stream fed synchronously would have produced. It returns immediately when
// the async path was never used; with concurrent enqueuers it waits for an
// instant with no worker in flight.
func (d *Dispatcher) Flush() {
	d.flushMu.Lock()
	for d.pending.Load() != 0 {
		d.flushCond.Wait()
	}
	d.flushMu.Unlock()
}

// Close shuts the asynchronous ingestion path down: new CheckInAsync calls
// fail with ErrClosed, enqueuers blocked on backpressure are released with
// ErrClosed, the drainers ingest everything already queued and exit, and
// Close waits for all of that to finish — including the online rebalancer,
// which is stopped last. Synchronous CheckIn/CheckInBatch and the task
// lifecycle remain fully usable afterwards (with the tile layout frozen).
// Safe to call multiple times and from multiple goroutines; every call
// waits for the complete shutdown.
func (d *Dispatcher) Close() error {
	d.asyncMu.Lock()
	if !d.closed.Load() {
		d.closed.Store(true)
		// Blocked enqueuers bail out with ErrClosed, idle drainers exit.
		for _, q := range d.queues {
			q.wakeAll()
		}
	}
	d.asyncMu.Unlock()
	d.drainWG.Wait()
	// Freeze the layout after the drainers are gone: halt waits out any
	// in-flight rebalance pass, so no migration ever runs on a dispatcher
	// the caller believes shut down. Synchronous check-ins stay usable
	// after Close, but tiles no longer move under them.
	if d.rb != nil {
		d.rb.halt()
	}
	return nil
}

// ensureDrainers starts the per-shard drainer goroutines exactly once.
// The start races with Close under asyncMu: once the dispatcher is closed
// no drainer is ever spawned (the refused enqueue never queues anything,
// so nothing is lost).
func (d *Dispatcher) ensureDrainers() {
	if d.started.Load() {
		return
	}
	d.asyncMu.Lock()
	if !d.started.Load() && !d.closed.Load() {
		d.drainWG.Add(len(d.shards))
		for si := range d.shards {
			go d.drainLoop(si)
		}
		d.started.Store(true)
	}
	d.asyncMu.Unlock()
}

// drainLoop is shard si's drainer — the queue's single consumer: it pops
// everything queued (at most QueueCap workers) and ingests it as one run
// under one shard-mutex acquisition, until pop reports closed and empty.
func (d *Dispatcher) drainLoop(si int) {
	defer d.drainWG.Done()
	q := d.queues[si]
	run := make([]model.Worker, 0, q.cap)
	for {
		run = q.pop(d, run)
		if len(run) == 0 {
			return
		}
		d.ingestRun(si, run, false, nil)
		d.retirePending(len(run))
	}
}

// retirePending marks n enqueued workers fully ingested (or refused by a
// close), waking Flush when nothing is left in flight.
func (d *Dispatcher) retirePending(n int) {
	if d.pending.Add(int64(-n)) == 0 {
		d.flushMu.Lock()
		d.flushCond.Broadcast()
		d.flushMu.Unlock()
	}
}
