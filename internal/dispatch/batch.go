package dispatch

import (
	"fmt"
	"slices"

	"ltc/internal/events"
	"ltc/internal/model"
)

// CheckInBatch ingests a batch of workers with the sequential semantics of
// a CheckIn loop at a fraction of the per-call overhead: consecutive
// workers routing to the same shard form one run, ingested under a single
// shard-mutex acquisition. Workers keep their input order, so a sequential
// caller gets bit-identical assignments, latency and task statuses to
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
	// Each worker is located exactly once: the shard that ends a run is
	// carried over as the next run's head, which keeps the rebalancer's
	// per-tile arrival counts exact and saves a lookup at every boundary.
	si := -1
	for i := 0; i < len(ws); {
		if d.Done() {
			return dst, ErrDone
		}
		if si < 0 {
			si = d.locate(ws[i].Loc)
		}
		j, nextSi := i+1, -1
		for j < len(ws) {
			if sj := d.locate(ws[j].Loc); sj != si {
				nextSi = sj
				break
			}
			j++
		}
		base := len(dst)
		dst = dst[:base+j-i]
		consumed := d.ingestRun(si, ws[i:j], true, dst[base:])
		dst = dst[:base+consumed]
		if consumed < j-i {
			return dst, ErrDone
		}
		i, si = j, nextSi
	}
	return dst, nil
}

// ingestRun offers a same-shard run of workers to shard si under one mutex
// acquisition — the one ingestion body behind every front door: CheckIn (a
// run of length one), CheckInBatch and the async drainers. It is the only
// caller of the solver's Arrive.
//
// truncate selects the completion semantics: when true the run stops before
// the first worker that would arrive on a completed platform (the
// CheckInBatch contract — unconsumed workers are not observed at all);
// when false such workers are consumed as bounced arrivals, exactly like
// check-ins racing a momentarily-complete platform (the async contract).
//
// out, when non-nil, must have len(run) slots; out[i] receives run[i]'s
// Receipt, whose Assignments slice is carved from the shard arena and
// caller-owned. The async drainers pass a nil out and skip the grant
// carving entirely. The shard's arrival clock and the live-task countdown
// behind Done are updated per worker, so a long run never publishes stale
// values; it and the resolved count, written on a completion only, are the
// dispatcher-wide words a run writes. Lifecycle events collected during the
// run are published after the shard mutex is released.
func (d *Dispatcher) ingestRun(si int, run []model.Worker, truncate bool, out []Receipt) (consumed int) {
	s := d.shards[si]
	// The run's TaskCompleted events are published after the unlock. With
	// receipts they are read back from the grants (runCompleted says whether
	// there is anything to read); the receipt-less drainers collect them in
	// completions instead, a fresh slice per run and never a buffer the
	// shard keeps: it is read after the unlock, when the next run may
	// already hold the shard mutex and would overwrite a reused one.
	// Collected whether or not anyone subscribes (a task completes once
	// ever, so the appends are negligible): gating collection on a
	// start-of-run Active() snapshot would let a subscriber attaching
	// mid-run observe the run's PlatformDone without its completions — a
	// silent exactly-once violation Publish's own per-event gate cannot
	// cause.
	var completions []events.Event
	runCompleted, platformDone := 0, false
	s.mu.Lock()
	for i := range run {
		if truncate && d.Done() {
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
	if out != nil && runCompleted > 0 {
		for _, rec := range out[:consumed] {
			for _, g := range rec.Assignments {
				if g.Completed {
					d.bus.Publish(events.Event{Kind: events.TaskCompleted, Task: g.Task, Worker: rec.Worker})
				}
			}
		}
	}
	for _, e := range completions {
		d.bus.Publish(e)
	}
	if platformDone {
		d.bus.Publish(events.Event{Kind: events.PlatformDone, Task: -1})
	}
	return consumed
}
