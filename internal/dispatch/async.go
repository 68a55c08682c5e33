package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ltc/internal/model"
)

// Producer and consumer spin budgets before falling back to the parked
// (mutex + condvar) slow path. The budgets are yields, not busy waits:
// on a loaded box each spin gives the scheduler a chance to run whichever
// side of the queue is behind, which resolves most transient full/empty
// states without ever touching the mutex.
const (
	pushSpins = 16
	popSpins  = 16
)

// shardQueue is one shard's bounded CheckInAsync buffer: a Vyukov-style
// MPSC ring. The backing array is fixed at construction (capacity rounded
// up to a power of two so slot mapping is a mask, not a division) and each
// slot carries a sequence number that encodes its state for lock-free
// hand-off:
//
//	seq == pos          the slot is free for the producer claiming index pos
//	seq == pos+1        the slot holds a published worker for the consumer
//	seq == pos+cap      the slot was consumed and is free for the next lap
//
// Producers claim a slot by CAS on tail, write the worker, and publish by
// storing seq = pos+1; the store is the release that makes the worker
// visible, so the single consumer (the shard's drainer) only ever reads
// slots whose sequence says "published" and never needs a lock. When the
// ring is full, producers spin briefly and then park on notFull; when it is
// empty the consumer parks on notEmpty. Both parks register themselves
// (waiters / sleeping) before re-checking the ring under the mutex, and the
// fast paths only touch the mutex when that registration is visible — the
// uncontended enqueue and dequeue are entirely lock-free.
type shardQueue struct {
	buf  []model.Worker
	seq  []atomic.Uint64
	mask uint64

	tail atomic.Uint64 // next slot index a producer claims
	head atomic.Uint64 // next slot index the consumer reads

	// active counts producers inside push — registered before push's closed
	// check, released after the worker is published (or the push refused).
	// The drainer only treats "closed and head == tail" as final when
	// active is zero: a producer that passed the closed check just before
	// Close may still publish, and this counter is what makes the drainer
	// wait for that publication instead of exiting under it.
	active atomic.Int64

	// Parked slow path. waiters counts producers parked (or parking) on
	// notFull; sleeping marks the consumer parked (or parking) on notEmpty.
	// Both are written under mu and read lock-free by the opposite side to
	// decide whether a wake-up is needed at all.
	//ltc:lock queue
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	waiters  atomic.Int32
	sleeping atomic.Bool
}

func newShardQueue(capacity int) *shardQueue {
	// Minimum capacity 2: with a single slot the "published at pos" state
	// (seq == pos+1) is indistinguishable from the "free for the next lap"
	// state (seq == pos+cap), and a producer could claim a slot the
	// consumer has not read yet.
	c := 2
	for c < capacity {
		c <<= 1
	}
	q := &shardQueue{
		buf:  make([]model.Worker, c),
		seq:  make([]atomic.Uint64, c),
		mask: uint64(c - 1),
	}
	for i := range q.seq {
		q.seq[i].Store(uint64(i))
	}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// depth reports how many workers are claimed-or-published but not yet
// consumed. head is only advanced by the consumer and tail only ever claims
// free slots, so the difference is always within [0, cap].
func (q *shardQueue) depth() int { return int(q.tail.Load() - q.head.Load()) }

// published reports whether the slot at ring index pos holds a published
// worker.
func (q *shardQueue) published(pos uint64) bool {
	return q.seq[pos&q.mask].Load() == pos+1
}

// full reports whether every slot is claimed. Used only by the parked
// producer path; the lock-free path detects fullness from the slot
// sequence itself.
func (q *shardQueue) full() bool {
	return q.tail.Load()-q.head.Load() >= uint64(len(q.buf))
}

// wakeAll wakes both sides of the queue — the close broadcast and the
// context-cancellation callback (both re-check their exit condition under
// the mutex, so taking it here means no wake-up can be lost).
func (q *shardQueue) wakeAll() {
	ldLock("queue", 0)
	q.mu.Lock()
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	ldUnlock("queue", 0)
	q.mu.Unlock()
}

// wakeConsumer is the producer-side post-publish wake: it takes the mutex
// only when the consumer has registered itself as sleeping. The sleeping
// store (under mu, before the consumer's own re-check) and this load are
// both sequentially consistent, so a consumer that missed the publication
// is always visible here.
func (q *shardQueue) wakeConsumer() {
	if q.sleeping.Load() {
		ldLock("queue", 0)
		q.mu.Lock()
		q.notEmpty.Signal()
		ldUnlock("queue", 0)
		q.mu.Unlock()
	}
}

// wakeProducers is the consumer-side post-drain wake, the mirror image of
// wakeConsumer for parked producers.
func (q *shardQueue) wakeProducers() {
	if q.waiters.Load() != 0 {
		ldLock("queue", 0)
		q.mu.Lock()
		q.notFull.Broadcast()
		ldUnlock("queue", 0)
		q.mu.Unlock()
	}
}

// stopCtxWake releases a context.AfterFunc wake-up registration, if one was
// made.
func stopCtxWake(stop func() bool) {
	if stop != nil {
		stop()
	}
}

// push enqueues one worker, blocking (spin, then park) while the ring is
// full. It fails with ErrClosed once the dispatcher closes and with
// ctx.Err() once ctx is done — both checked before every claim attempt, so
// close always wins over a concurrent slot release. The caller has already
// registered itself in q.active.
//
//ltc:noalloc
func (q *shardQueue) push(ctx context.Context, d *Dispatcher, w model.Worker) error {
	var stopWake func() bool
	spins := 0
	for {
		if d.closed.Load() {
			stopCtxWake(stopWake)
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			stopCtxWake(stopWake)
			return err
		}
		pos := q.tail.Load()
		slot := &q.seq[pos&q.mask]
		switch dif := int64(slot.Load()) - int64(pos); {
		case dif == 0:
			// The slot is free: claim it by advancing tail. A failed CAS
			// means another producer claimed pos first — reload and retry.
			if q.tail.CompareAndSwap(pos, pos+1) {
				q.buf[pos&q.mask] = w
				slot.Store(pos + 1) // publish: the worker is now visible
				q.wakeConsumer()
				stopCtxWake(stopWake)
				return nil
			}
		case dif < 0:
			// The slot has not been consumed since the previous lap: the
			// ring is full. Yield a few times, then park until the drainer
			// frees slots (or close/cancellation interrupts the wait).
			if spins < pushSpins {
				spins++
				runtime.Gosched()
				continue
			}
			spins = 0
			if stopWake == nil && ctx.Done() != nil {
				// About to park with a cancellable context: arrange for the
				// wait to wake when ctx fires. The callback takes the queue
				// mutex, so it cannot complete between the park's re-check
				// and its Wait — no lost wake-up. Lock-free enqueues never
				// pay for this.
				stopWake = context.AfterFunc(ctx, q.wakeAll) //ltclint:ignore noalloc park slow path only — the ring was full for a whole spin phase, so one method-value allocation is noise
			}
			q.parkProducer(ctx, d)
		}
		// dif > 0: tail moved under us (another producer already published
		// into pos); reload and retry.
	}
}

// parkProducer blocks on notFull until the ring has room again, the
// dispatcher closes, or ctx is done. The waiter registration happens under
// the mutex before the fullness re-check: a drain that empties the ring
// after the caller's lock-free check either sees the registration (and
// broadcasts) or finished before it (and the re-check sees the free slots).
func (q *shardQueue) parkProducer(ctx context.Context, d *Dispatcher) {
	ldLock("queue", 0)
	q.mu.Lock()
	q.waiters.Add(1)
	for q.full() && !d.closed.Load() && ctx.Err() == nil {
		q.notFull.Wait()
	}
	q.waiters.Add(-1)
	ldUnlock("queue", 0)
	q.mu.Unlock()
}

// parkConsumer blocks until the slot at the consumer's head is published or
// the dispatcher closes, yielding through a short spin phase first. The
// sleeping registration happens under the mutex before the published
// re-check, mirroring parkProducer's lost-wake-up discipline.
func (q *shardQueue) parkConsumer(d *Dispatcher) {
	head := q.head.Load()
	for i := 0; i < popSpins && !q.published(head) && !d.closed.Load(); i++ {
		runtime.Gosched()
	}
	ldLock("queue", 0)
	q.mu.Lock()
	q.sleeping.Store(true)
	for !q.published(head) && !d.closed.Load() {
		q.notEmpty.Wait()
	}
	q.sleeping.Store(false)
	ldUnlock("queue", 0)
	q.mu.Unlock()
}

// pop moves up to max published workers into run (appending; the caller
// passes a reused buffer) and returns the extended slice. It blocks while
// the ring is empty and returns run unchanged — the drainer's exit signal —
// only once the dispatcher is closed, no producer is mid-push, and every
// claimed slot has been consumed.
//
//ltc:noalloc
func (q *shardQueue) pop(d *Dispatcher, max int, run []model.Worker) []model.Worker {
	for {
		head := q.head.Load()
		n := uint64(0)
		// Take the contiguous published prefix. A claimed-but-unpublished
		// slot simply ends the run: its producer is about to store the
		// sequence, and the next pop picks it up.
		for n < uint64(max) && q.published(head+n) {
			run = append(run, q.buf[(head+n)&q.mask])
			n++
		}
		if n > 0 {
			// Advance head before freeing the slots: producers measure
			// fullness as tail−head, so depth never transiently exceeds the
			// capacity.
			q.head.Store(head + n)
			for i := uint64(0); i < n; i++ {
				q.seq[(head+i)&q.mask].Store(head + i + uint64(len(q.buf)))
			}
			q.wakeProducers()
			return run
		}
		if d.closed.Load() && q.active.Load() == 0 && q.tail.Load() == head {
			// Closed and fully drained: once active is zero every producer
			// that slipped past the closed check has published (and later
			// ones are refused before claiming), so head == tail is final.
			return run
		}
		q.parkConsumer(d)
	}
}

// CheckInAsync routes the worker into its spatial shard's bounded ring
// buffer and returns without waiting for ingestion — the fire-and-forget
// counterpart of CheckIn for callers that don't need the assignment list
// back (it stays observable through Arrangement, Credits and TaskStatuses).
// The first call starts one drainer goroutine per shard; each drainer pops
// runs of queued workers and ingests every run under a single shard-mutex
// acquisition, which is where batching beats per-call CheckIn. Within a shard workers are ingested in
// enqueue order; across shards there is no order, exactly as with
// concurrent CheckIn calls.
//
// The call blocks while the shard's ring is full (backpressure, bounded by
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
// shard's ring is full the call blocks until a slot frees, the dispatcher
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
	q.active.Add(1)
	err := q.push(ctx, d, w)
	q.active.Add(-1)
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
	ldLock("leaf", 0)
	d.flushMu.Lock()
	for d.pending.Load() != 0 {
		d.flushCond.Wait()
	}
	ldUnlock("leaf", 0)
	d.flushMu.Unlock()
}

// Close shuts the asynchronous ingestion path down: new CheckInAsync calls
// fail with ErrClosed, enqueuers blocked on backpressure are released with
// ErrClosed, the drainers ingest everything already queued and exit, and
// Close waits for all of that to finish — including the online rebalancer,
// which is stopped last. Synchronous CheckIn/CheckInBatch and the task
// lifecycle remain fully usable afterwards (with the tile layout frozen). Safe to call
// multiple times and from multiple goroutines; every call waits for the
// complete shutdown.
func (d *Dispatcher) Close() error {
	ldLock("async", 0)
	d.asyncMu.Lock()
	if !d.closed.Load() {
		d.closed.Store(true)
		// Wake everyone: blocked enqueuers bail out with ErrClosed, idle
		// drainers re-check the exit condition.
		for _, q := range d.queues {
			q.wakeAll()
		}
	}
	ldUnlock("async", 0)
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
	ldLock("async", 0)
	d.asyncMu.Lock()
	if !d.started.Load() && !d.closed.Load() {
		d.drainWG.Add(len(d.shards))
		for si := range d.shards {
			go d.drainLoop(si)
		}
		d.started.Store(true)
	}
	ldUnlock("async", 0)
	d.asyncMu.Unlock()
}

// drainLoop is shard si's drainer — the ring's single consumer: it pops
// runs of queued workers (up to Options.MaxDrain per pop, everything queued
// when 0) and ingests each run under one shard-mutex acquisition. It exits
// once the dispatcher is closed and the ring fully drained.
func (d *Dispatcher) drainLoop(si int) {
	defer d.drainWG.Done()
	q := d.queues[si]
	maxDrain := d.opts.MaxDrain
	if maxDrain == 0 || maxDrain > len(q.buf) {
		maxDrain = len(q.buf)
	}
	run := make([]model.Worker, 0, maxDrain)
	for {
		run = q.pop(d, maxDrain, run[:0])
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
		ldLock("leaf", 0)
		d.flushMu.Lock()
		d.flushCond.Broadcast()
		ldUnlock("leaf", 0)
		d.flushMu.Unlock()
	}
}
