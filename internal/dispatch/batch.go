package dispatch

import (
	"fmt"
	"runtime"
	"slices"

	"ltc/internal/events"
	"ltc/internal/model"
)

// CheckInBatch ingests a batch of workers with the sequential semantics of
// a CheckIn loop at a fraction of the per-call overhead: the batch is
// grouped by shard, at most 64 workers at a time, and each shard ingests
// its group under one shard-mutex acquisition. Every shard's solver sees
// only its own workers, so a grouping that keeps each shard's input order
// feeds every solver the sequence a CheckIn loop would: a sequential caller
// gets bit-identical assignments, latency, task statuses and events to
// feeding the same stream through CheckIn one by one — the conformance
// suite (conformance_test.go at the module root) pins this equivalence
// against per-call CheckIn and the golden Session traces.
//
// out[i] is ws[i]'s Receipt, exactly as per-call CheckIn would have
// returned it. When the platform completes mid-batch, ingestion stops: out
// is truncated to the ingested prefix (the worker completing the last task
// is its final entry), ErrDone is returned, and the remaining workers are
// not observed at all — they tick no arrival clock and count no arrival,
// so they can be re-presented after a PostTask revives the platform. A
// platform already complete at call time returns an empty out and ErrDone.
// A worker with a non-positive index fails the whole batch upfront with
// ErrBadWorkerIndex; an empty batch is a no-op. Safe for concurrent use
// alongside every other dispatcher method.
func (d *Dispatcher) CheckInBatch(ws []model.Worker) ([]Receipt, error) {
	return d.CheckInBatchInto(ws, nil)
}

// CheckInBatchInto is CheckInBatch appending into a caller-provided receipt
// slice: the batch's receipts are appended to dst and the extended slice is
// returned (dst may be nil). A caller recycling dst[:0] across batches pays
// no per-batch receipt allocation once the slice has grown to the working
// batch size — the allocation-free counterpart of CheckInBatch for
// sustained ingestion loops. Error semantics are identical to CheckInBatch;
// on ErrDone the returned slice holds dst plus the ingested prefix.
func (d *Dispatcher) CheckInBatchInto(ws []model.Worker, dst []Receipt) ([]Receipt, error) {
	for i, w := range ws {
		if w.Index < 1 {
			return dst, fmt.Errorf("%w: got %d at batch position %d", ErrBadWorkerIndex, w.Index, i)
		}
	}
	dst = slices.Grow(dst, len(ws))
	for i := 0; i < len(ws); i += batchWindow {
		if d.Done() {
			return dst, ErrDone
		}
		n := min(batchWindow, len(ws)-i)
		base := len(dst)
		if dst = d.checkInWindow(ws[i:i+n], dst); len(dst)-base < n {
			return dst, ErrDone
		}
	}
	return dst, nil
}

// The batch's scratch window, on the stack: a batch is ingested
// batchWindow workers at a time, grouped into batchBuckets buckets by
// shard. A bucket holds one shard on platforms of up to batchBuckets
// shards; beyond that it holds several, and each maximal same-shard stretch
// of it is a run of its own.
const (
	batchWindow  = 64
	batchBuckets = 16
)

// checkInWindow ingests one window of at most batchWindow workers and
// appends the receipts of the ones it consumed, which form a prefix of ws.
//
// Each worker is located exactly once, which keeps the rebalancer's per-tile
// arrival counts exact, and a stable counting sort groups the window by
// shard. The first pass offers each group to its shard with runToShardDone,
// so a shard stops at its own completion. If the platform is then done, p*
// — the largest position any shard consumed — is where a CheckIn loop would
// have stopped: the leftovers before p* are the workers it would have
// bounced off completed shards, and the second pass consumes them as
// bounced arrivals (a second hold, only on a shard that is already done);
// the workers after p* are never observed. If the platform is not done
// every leftover is such a bounce. The receipts are scattered back to input
// order and every Done flag is false but the last, which carries Done. The
// window's events are published after its last hold, TaskCompleted in
// position order, then PlatformDone.
func (d *Dispatcher) checkInWindow(ws []model.Worker, dst []Receipt) []Receipt {
	var (
		shardOf [batchWindow]int32        // each position's shard
		next    [batchBuckets + 1]int     // bucket starts, then bucket cursors
		at      [batchWindow]int          // grouped slot → input position
		grouped [batchWindow]model.Worker // the window, grouped by shard
		recs    [batchWindow]Receipt      // grouped receipts
	)
	n := len(ws)
	for i, w := range ws {
		si := d.locate(w.Loc)
		shardOf[i] = int32(si)
		next[si%batchBuckets+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	for i := range ws {
		g := &next[shardOf[i]%batchBuckets]
		at[*g], grouped[*g] = i, ws[i]
		*g++
	}
	// runEnd is the end of the same-shard run starting at grouped slot g.
	runEnd := func(g int) int {
		h := g + 1
		for h < n && shardOf[at[h]] == shardOf[at[g]] {
			h++
		}
		return h
	}

	var taken [batchWindow]int // slots the first pass consumed, by run head
	last, platformDone := -1, false
	for g := 0; g < n; {
		h := runEnd(g)
		c, done := d.ingestRun(int(shardOf[at[g]]), grouped[g:h], runToShardDone, recs[g:h])
		taken[g], platformDone = c, platformDone || done
		if c > 0 {
			last = max(last, at[g+c-1])
		}
		g = h
	}
	limit := n // the positions this window consumes
	if d.Done() {
		limit = last + 1
	}
	for g := 0; g < n; {
		h := runEnd(g)
		lo := g + taken[g]
		hi := lo
		for hi < h && at[hi] < limit {
			hi++
		}
		if hi > lo {
			_, done := d.ingestRun(int(shardOf[at[g]]), grouped[lo:hi], runBounce, recs[lo:hi])
			platformDone = platformDone || done
		}
		g = h
	}

	base := len(dst)
	dst = dst[:base+limit]
	for g, p := range at[:n] {
		if p < limit {
			recs[g].Done = false
			dst[base+p] = recs[g]
		}
	}
	if limit > 0 {
		dst[base+limit-1].Done = d.Done()
	}
	if d.publishReceipts(dst[base:], platformDone) {
		// Hand the processor to the subscriber these publishes woke. With one
		// hold per shard the feeders seldom park on a shard mutex, and on two
		// processors the subscriber waited for such a park: without the
		// yield its runnable wait doubled and so did lib-batch-hotspot's
		// event lag. Recorders run inside Publish and need no yield; an
		// unconditional one raised wire-batch's lag by about 40 %.
		runtime.Gosched()
	}
	return dst
}

// publishReceipts publishes the TaskCompleted events the receipts' grants
// record, in receipt order, then PlatformDone when platformDone is set. It
// reports whether the bus had a channel subscriber.
func (d *Dispatcher) publishReceipts(recs []Receipt, platformDone bool) (subscribed bool) {
	for _, rec := range recs {
		for _, g := range rec.Assignments {
			if g.Completed {
				subscribed = d.bus.Publish(events.Event{Kind: events.TaskCompleted, Task: g.Task, Worker: rec.Worker}) || subscribed
			}
		}
	}
	if platformDone {
		subscribed = d.bus.Publish(events.Event{Kind: events.PlatformDone, Task: -1}) || subscribed
	}
	return subscribed
}

// runMode selects where ingestRun ends a run and who publishes its events.
type runMode uint8

const (
	// runPublish consumes every worker — one that arrives at a shard with no
	// open task as a bounced arrival, exactly like check-ins racing a
	// momentarily complete platform — and publishes the run's events after
	// the unlock: CheckIn and the async drainers.
	runPublish runMode = iota
	// runToShardDone stops before the first worker that would arrive at the
	// shard with no open task, leaving it and the rest of the run
	// unobserved, and publishes nothing: a batch window's first pass.
	runToShardDone
	// runBounce consumes every worker like runPublish but publishes
	// nothing: a batch window's second pass.
	runBounce
)

// ingestRun offers a same-shard run of workers to shard si under one mutex
// acquisition — the one ingestion body behind every front door: CheckIn (a
// run of length one), CheckInBatch and the async drainers. It is the only
// caller of the solver's Arrive. mode says where the run stops and whether
// it publishes (see runMode); platformDone reports whether the run took the
// platform's open-task count to zero, so that a batch, which publishes its
// events itself once its last run is done, can publish PlatformDone.
//
// out, when non-nil, must have len(run) slots; out[i] receives run[i]'s
// Receipt, whose Assignments slice is carved from the shard arena and
// caller-owned. The async drainers pass a nil out and skip the grant
// carving entirely. The shard's arrival clock and the live-task countdown
// behind Done are updated per worker, so a long run never publishes stale
// values; it and the resolved count, written on a completion only, are the
// dispatcher-wide words a run writes. Lifecycle events collected during the
// run are published after the shard mutex is released.
func (d *Dispatcher) ingestRun(si int, run []model.Worker, mode runMode, out []Receipt) (consumed int, platformDone bool) {
	s := d.shards[si]
	// The run's TaskCompleted events are published after the unlock, here or,
	// for a batch's runs, by the batch. With receipts they are read back
	// from the grants (runCompleted says whether there is anything to read);
	// the receipt-less drainers collect them in completions instead, a fresh
	// slice per run and never a buffer the shard keeps: it is read after the
	// unlock, when the next run may already hold the shard mutex and would
	// overwrite a reused one. Collected whether or not anyone subscribes (a
	// task completes once ever, so the appends are negligible): gating
	// collection on a start-of-run Active() snapshot would let a subscriber
	// attaching mid-run observe the run's PlatformDone without its
	// completions — a silent exactly-once violation Publish's own per-event
	// gate cannot cause.
	var completions []events.Event
	runCompleted := 0
	s.mu.Lock()
	for i := range run {
		if mode == runToShardDone && s.eng.Done() {
			break
		}
		w := run[i]
		consumed++
		s.routed++
		s.clock.Store(max(s.clock.Load(), int64(w.Index)))
		if s.eng.Done() {
			// The shard has no open tasks: the worker is consumed as a
			// bounced arrival (CheckIn's empty receipt).
			if out != nil {
				out[i] = Receipt{Worker: w.Index, Shard: si, Done: d.Done()}
			}
			continue
		}
		s.offered++
		assertLocked(&s.mu) // Arrive drops completed tasks from the shard's index
		outcomes := s.eng.Arrive(w)
		var grants []TaskGrant
		if out != nil && len(outcomes) > 0 {
			grants = s.arena.carve(len(outcomes))
		}
		completedDelta := 0
		for k, oc := range outcomes {
			gid := s.sub.Global[oc.Task]
			if oc.Completed {
				completedDelta++
				if out == nil {
					completions = append(completions, events.Event{Kind: events.TaskCompleted, Task: gid, Worker: w.Index})
				}
			}
			if grants != nil {
				grants[k] = TaskGrant{Task: gid, Credit: oc.Credit, Completed: oc.Completed}
			}
		}
		if completedDelta > 0 {
			runCompleted += completedDelta
			d.resolved.Add(int64(completedDelta))
			if d.remaining.Add(int64(-completedDelta)) == 0 {
				platformDone = true
			}
		}
		if out != nil {
			out[i] = Receipt{Worker: w.Index, Shard: si, Assignments: grants, Done: d.Done()}
		}
	}
	s.mu.Unlock()
	d.noteArrived(consumed)
	switch {
	case mode != runPublish:
	case out != nil:
		if runCompleted > 0 {
			d.publishReceipts(out[:consumed], platformDone)
		}
	default:
		for _, e := range completions {
			d.bus.Publish(e)
		}
		if platformDone {
			d.bus.Publish(events.Event{Kind: events.PlatformDone, Task: -1})
		}
	}
	return consumed, platformDone
}
