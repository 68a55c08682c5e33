// Package dispatch is the sharded concurrent check-in layer of the
// reproduction: it partitions an LTC instance's task space into spatial
// shards (internal/model.PartitionInstance over the internal/geo grid),
// runs one independent online solver per shard, and routes each arriving
// worker to the shard owning its location. Check-ins serialize per shard,
// so calls touching disjoint shards proceed fully in parallel — the
// real-time assignment pattern of hyperlocal spatial-crowdsourcing
// frameworks (Tran et al.), applied to the paper's LAF/AAM/Random solvers.
//
// The task set is mutable while workers stream in: PostTask routes a new
// task to the shard owning its location (per-shard candidate indexes update
// incrementally) and RetireTask expires a stale one. Both are safe to call
// concurrently with CheckIn. A task posted after p check-ins has its latency
// reported both absolutely (global worker index, the paper's objective) and
// relative to its post index p — see RelativeLatency.
//
// Latency semantics: workers keep their global arrival indices (the online
// solvers assign from location and accuracy only, so no per-shard
// renumbering is needed), and all latencies — per shard and platform-wide —
// are reported in those global indices, directly comparable with the
// unsharded solver. Sharding trades assignment quality for throughput: a worker is
// only considered for tasks in its own shard, so tasks near shard borders
// lose eligible workers and the global latency is typically at or above
// the single-engine solver's (see CONCURRENCY.md).
package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ltc/internal/core"
	"ltc/internal/events"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// Dispatcher errors.
var (
	// ErrDone is returned by CheckIn once every task of every shard has
	// reached its quality threshold. Posting a new task revives the
	// dispatcher: subsequent check-ins are accepted again.
	ErrDone = errors.New("dispatch: all tasks completed")
	// ErrBadWorkerIndex is returned for check-ins without a positive global
	// arrival index.
	ErrBadWorkerIndex = errors.New("dispatch: worker arrival index must be ≥ 1")
	// ErrUnknownTask is returned by RetireTask for ids never posted.
	ErrUnknownTask = errors.New("dispatch: unknown task ID")
	// ErrClosed is returned by CheckInAsync once Close has been called.
	ErrClosed = errors.New("dispatch: dispatcher closed")
	// ErrBadOptions is returned by New for out-of-range tuning values
	// (negative queue capacity, rebalance knobs outside their documented
	// ranges).
	ErrBadOptions = errors.New("dispatch: option value out of range")
)

// DefaultQueueCap is the per-shard CheckInAsync queue capacity used when
// Options.QueueCap is zero.
const DefaultQueueCap = 1024

// Options tunes the batched/asynchronous ingestion path and the shard
// layout; the zero value is ready to use.
type Options struct {
	// QueueCap bounds each shard's CheckInAsync queue: it holds exactly
	// QueueCap workers, and enqueues block (backpressure) while the owning
	// shard's queue is full. 0 means DefaultQueueCap. The drainer ingests
	// everything queued under one shard-mutex acquisition, so QueueCap also
	// bounds how long a drain run can make a concurrent PostTask/RetireTask
	// wait for the shard mutex. On a saturated async feed the queues sit
	// full, so an event trails its worker's enqueue by about the queued
	// workers over the ingest rate: milliseconds on the benchmark's
	// lib-async-uniform.
	QueueCap int
	// Balanced switches the tile→shard layout from fixed spatial striping
	// to the load-aware greedy pack (model.PartitionOptions.Balanced),
	// using the instance's worker locations — sampled down to
	// maxLoadSample — as the load profile (task locations when the
	// instance carries no workers). Latency semantics are unchanged:
	// workers keep global arrival indices whatever the layout, and with
	// one shard both layouts are identical. What changes is which shard
	// serves which tile, so skewed traffic (hotspots, flash crowds) no
	// longer collapses onto one hot shard mutex.
	Balanced bool
	// LoadSample, when non-nil, overrides the balanced layout's load profile
	// with the given points instead of sampling in.Workers. Callers that
	// know the instance's worker table is not the arrival stream — churn
	// replays, live feeds — pass the locations that will actually arrive,
	// so the greedy pack packs against real traffic rather than a stale
	// oracle. Ignored unless Balanced is set.
	LoadSample []geo.Point
	// Rebalance, when non-nil, enables adaptive live re-sharding on top of
	// the balanced layout: the dispatcher learns per-tile arrival rates
	// online and migrates tiles (routing plus the open tasks' solver state)
	// between shards mid-stream when the forecast load no longer matches
	// the layout. Requires Balanced; silently inert on single-shard
	// platforms (nothing to migrate between). See RebalanceOptions for the
	// knobs.
	Rebalance *RebalanceOptions
}

// maxLoadSample caps how many worker locations feed the balanced layout's
// load profile; beyond it workers are sampled at a fixed stride. 4096
// points pin tile loads to a few percent — plenty for a greedy pack.
const maxLoadSample = 4096

// shard pairs one spatial sub-instance with its solver engine, its
// incrementally updatable candidate index, and the mutex serializing its
// check-ins and task-lifecycle updates.
//
// Workers keep their global arrival indices: the online solvers never read
// Worker.Index (only locations and accuracies drive assignment), so the
// shard's engine can record arrangements — and therefore latency — directly
// in global terms, and index-sensitive accuracy models stay correct.
type shard struct {
	//ltc:lock shard[i]
	mu  sync.Mutex
	eng *core.Engine
	sub *model.SubInstance
	// arena carves the TaskGrant slices handed out in Receipts, so the
	// per-check-in grant cost is one amortized block allocation instead of
	// one make per call. Guarded by mu like the rest of the shard.
	arena grantArena
	// routed counts every check-in that landed on the shard, including
	// ones bounced because the shard had already completed its tasks.
	routed int
	// routedBase is the routed count at the last tile migration; Imbalance
	// measures routed−routedBase so the metric reflects the current tile
	// ownership, not traffic served under layouts that no longer exist.
	// Zero (the whole history) until the first migration.
	routedBase int
	// offered counts the workers actually presented to the solver.
	offered int
	// migratedIn/migratedOut count tile migrations that adopted tasks into /
	// evicted tasks out of this shard.
	migratedIn  int
	migratedOut int
}

// taskRecord locates one global task: its owning shard and shard-local ID.
type taskRecord struct {
	shard int32
	local model.TaskID
}

// Dispatcher routes concurrent worker check-ins to per-shard online solvers.
// Construct with New; all methods are safe for concurrent use.
type Dispatcher struct {
	part      *model.Partition
	shards    []*shard
	remaining atomic.Int64 // live tasks not yet at δ, across all shards
	resolved  atomic.Int64 // tasks that reached δ or were retired open
	total     atomic.Int64 // tasks ever posted (initial + PostTask)
	maxSeen   atomic.Int64 // arrival clock: largest worker index seen (incl. bounced)
	// bounced counts the check-ins CheckIn turned away at the front door of a
	// complete platform — the only arrivals no shard's routed count holds.
	bounced atomic.Int64

	// regMu guards records, the global TaskID → (shard, local) registry.
	// Lock order: regMu before a shard mutex, never the reverse; CheckIn
	// takes only the shard mutex.
	//ltc:lock regMu
	regMu   sync.RWMutex
	records []taskRecord

	// bus fans lifecycle events out to Subscribe subscribers. Publishes
	// always happen after shard mutexes and regMu are released — the bus's
	// internal lock is a leaf that never nests inside the dispatch locks,
	// so the lock order above is unchanged.
	bus *events.Bus

	// rb is the online rebalancer (see rebalance.go); nil unless
	// Options.Rebalance enabled it.
	rb *rebalancer

	// Async ingestion state (see async.go). queues is allocated in New;
	// drainer goroutines start lazily on the first CheckInAsync.
	queues []*shardQueue
	//ltc:lock async
	asyncMu sync.Mutex // serializes drainer start and the close transition
	started atomic.Bool
	closed  atomic.Bool
	drainWG sync.WaitGroup
	pending atomic.Int64 // workers enqueued but not yet fully ingested
	// flushMu only ever guards the flushCond wait/signal handshake — nothing
	// nests under it, so it is a leaf like the event bus lock.
	//ltc:lock leaf
	flushMu   sync.Mutex
	flushCond *sync.Cond
}

// New partitions the instance into up to nShards spatial shards and binds a
// fresh solver (from factory) to each. The instance needs Tasks, Model, K
// and Epsilon; Workers may be empty — they arrive via CheckIn. An optional
// Options tunes the asynchronous ingestion path.
func New(in *model.Instance, nShards int, factory core.OnlineFactory, opts ...Options) (*Dispatcher, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.QueueCap < 0 {
		return nil, fmt.Errorf("%w: got QueueCap %d", ErrBadOptions, o.QueueCap)
	}
	if o.QueueCap == 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.Rebalance != nil {
		if !o.Balanced {
			return nil, ErrRebalanceLayout
		}
		r := o.Rebalance.withDefaults()
		if err := r.validate(); err != nil {
			return nil, err
		}
		o.Rebalance = &r
	}
	if err := in.ValidateStreaming(); err != nil {
		return nil, err
	}
	popt := model.PartitionOptions{Balanced: o.Balanced, LoadSample: o.LoadSample}
	if o.Balanced && popt.LoadSample == nil {
		popt.LoadSample = loadSample(in.Workers)
	}
	part, err := model.PartitionInstanceOpts(in, nShards, popt)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{part: part, shards: make([]*shard, part.NumShards()), bus: events.NewBus()}
	d.flushCond = sync.NewCond(&d.flushMu)
	d.queues = make([]*shardQueue, part.NumShards())
	for i := range d.queues {
		d.queues[i] = newShardQueue(o.QueueCap)
	}
	d.records = make([]taskRecord, len(in.Tasks))
	for i, sub := range part.Shards {
		ci := model.NewCandidateIndex(sub.In)
		d.shards[i] = &shard{
			eng: core.NewEngine(sub.In, ci, factory),
			sub: sub,
		}
		for local, gid := range sub.Global {
			d.records[gid] = taskRecord{shard: int32(i), local: model.TaskID(local)}
		}
	}
	d.remaining.Store(int64(len(in.Tasks)))
	d.total.Store(int64(len(in.Tasks)))
	if o.Rebalance != nil && part.Rebalanceable() {
		d.rb = newRebalancer(d, *o.Rebalance)
	}
	return d, nil
}

// loadSample extracts the balanced layout's load profile from the known
// worker locations, striding down to maxLoadSample points so partitioning
// stays O(tasks + sample) however large the stream is. Nil (no workers
// known up front) lets the partitioner fall back to task locations.
func loadSample(ws []model.Worker) []geo.Point {
	if len(ws) == 0 {
		return nil
	}
	stride := (len(ws) + maxLoadSample - 1) / maxLoadSample
	pts := make([]geo.Point, 0, (len(ws)+stride-1)/stride)
	for i := 0; i < len(ws); i += stride {
		pts = append(pts, ws[i].Loc)
	}
	return pts
}

// NumShards reports the number of shards actually created (≤ the requested
// count: empty spatial tiles collapse).
func (d *Dispatcher) NumShards() int { return len(d.shards) }

// Balanced reports whether the load-aware tile→shard layout is active.
func (d *Dispatcher) Balanced() bool { return d.part.Balanced }

// CheckIn routes worker w to the shard owning its location, offers it to
// that shard's solver, and returns the check-in Receipt: the granted tasks
// (as global TaskIDs, with per-assignment credit and completion), the
// worker's shard, and the platform-done flag. It returns ErrDone (with a
// bounced Receipt, Shard = -1) once the whole platform is complete. Safe
// for concurrent use; only check-ins landing on the same shard serialize.
//
// w.Index is the worker's global arrival index and must be ≥ 1; concurrent
// callers need not present indices in order — the solvers assign from
// location and accuracy only, and latency is tracked as a max over indices.
//
//ltc:noalloc
func (d *Dispatcher) CheckIn(w model.Worker) (Receipt, error) {
	if w.Index < 1 {
		return Receipt{Shard: -1}, fmt.Errorf("%w: got %d", ErrBadWorkerIndex, w.Index) //ltclint:ignore noalloc rejected check-in is off the hot path; the wrapped error is worth one allocation
	}
	if d.Done() {
		// A bounced call reaches no shard, so its clock tick and its arrival
		// are counted here: post indices (and therefore relative latency)
		// anchor to the largest worker index seen, in the same unit as
		// Latency, and must keep advancing even while the platform is
		// momentarily complete — a later PostTask can revive it.
		atomicMax(&d.maxSeen, int64(w.Index))
		d.bounced.Add(1)
		d.noteArrived(1)
		return Receipt{Worker: w.Index, Shard: -1, Done: true}, ErrDone
	}
	// A run of length one through the shared ingestion body: per-call, batch
	// and drainer check-ins cannot drift apart. The arrays stay on the stack.
	run, out := [1]model.Worker{w}, [1]Receipt{}
	d.ingestRun(d.locate(w.Loc), run[:], false, out[:])
	return out[0], nil
}

// Subscribe registers a platform-event subscriber with a buffer of the
// given capacity (values < 1 are raised to 1). Events are published after
// the emitting call's shard mutex (and, for PostTask, regMu) is released,
// so the bus never extends the dispatch lock order; see CONCURRENCY.md for
// the ordering and drop contract.
func (d *Dispatcher) Subscribe(buf int) *events.Subscription { return d.bus.Subscribe(buf) }

// atomicMax raises v to at least x.
func atomicMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// PostTask adds a task to the live platform and returns its global TaskID
// (dense, in post order after the initial set). The task is owned by the
// shard its location routes to — the same shard every worker at that
// location routes to, so late-posted tasks are always reachable, including
// ones landing in tiles that held no initial task. Its post index (the
// largest worker index seen so far — the arrival clock) anchors the
// relative latency accounting. Safe to call concurrently with CheckIn;
// posts serialize among themselves and with RetireTask.
func (d *Dispatcher) PostTask(t model.Task) (model.TaskID, error) {
	d.regMu.Lock()
	gid := model.TaskID(len(d.records))
	si := d.part.Locate(t.Loc)
	s := d.shards[si]
	post := int(d.maxSeen.Load())

	s.mu.Lock()
	local := s.sub.AppendTask(model.Task{ID: gid, Loc: t.Loc})
	assertLocked(&s.mu)
	err := s.eng.PostTask(local, post)
	if err == nil {
		// Count the task before releasing the shard: once unlocked, a
		// concurrent CheckIn may complete it and decrement remaining — if
		// the increment came later, Done() could read spuriously true while
		// other tasks are still open.
		d.total.Add(1)
		d.remaining.Add(1)
	} else {
		// Unreachable unless an engine invariant is broken; roll the append
		// back so the sub-instance stays in step with the engine.
		s.sub.TruncateLast()
	}
	s.mu.Unlock()
	if err != nil {
		d.regMu.Unlock()
		return 0, err
	}

	d.records = append(d.records, taskRecord{shard: int32(si), local: local.ID})
	d.regMu.Unlock()
	// Published after regMu is released (the bus lock never nests inside
	// dispatch locks). A worker racing this post can therefore complete the
	// task and publish its TaskCompleted before TaskPosted lands on the bus
	// — see the ordering contract in CONCURRENCY.md.
	d.bus.Publish(events.Event{Kind: events.TaskPosted, Task: gid, PostIndex: post})
	return gid, nil
}

// RetireTask expires the task with the given global ID: its shard's solver
// stops assigning it, it leaves the shard's candidate index, and it no
// longer blocks Done. Retiring a task that already completed (or was
// already retired) is a harmless no-op. Safe to call concurrently with
// CheckIn.
func (d *Dispatcher) RetireTask(id model.TaskID) error {
	d.regMu.RLock()
	if id < 0 || int(id) >= len(d.records) {
		d.regMu.RUnlock()
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	// The registry stays read-locked across the shard section: a tile
	// migration (a registry writer) slipping in between the record lookup
	// and the shard lock would move the task and leave this retire on the
	// source shard's evicted ghost — published, but never applied.
	rec := d.records[id]
	s := d.shards[rec.shard]
	s.mu.Lock()
	already := s.eng.TaskRetired(rec.local)
	assertLocked(&s.mu)
	wasOpen, err := s.eng.RetireTask(rec.local)
	s.mu.Unlock()
	d.regMu.RUnlock()
	if err != nil {
		return err
	}
	platformDone := false
	if wasOpen {
		d.resolved.Add(1)
		platformDone = d.remaining.Add(-1) == 0
	}
	if !already {
		d.bus.Publish(events.Event{Kind: events.TaskRetired, Task: id})
	}
	if platformDone {
		d.bus.Publish(events.Event{Kind: events.PlatformDone, Task: -1})
	}
	return nil
}

// Done reports whether every live task of every shard has reached δ
// (retired tasks don't block completion; a PostTask can revive a done
// dispatcher).
func (d *Dispatcher) Done() bool { return d.remaining.Load() == 0 }

// eachShard calls f on every shard in index order, each under its own mutex
// and no other: the one way the dispatcher reads an account its shards keep.
// A fold through it is per-shard consistent, not a global atomic cut — what
// ShardStats documents — and exact once ingestion is quiescent (after Flush,
// or when no check-in is in flight). f runs under the shard mutex, so it may
// neither take regMu nor publish; lockorder checks a literal f as such.
func (d *Dispatcher) eachShard(f func(si int, s *shard)) {
	for si, s := range d.shards {
		s.mu.Lock()
		f(si, s)
		s.mu.Unlock()
	}
}

// Latency returns the global LTC objective so far: the largest global
// arrival index among workers that received at least one assignment — the
// max over the shards' ledgers (see eachShard for the consistency of the
// read).
func (d *Dispatcher) Latency() (latency int) {
	d.eachShard(func(_ int, s *shard) { latency = max(latency, s.eng.Arrangement().Latency()) })
	return latency
}

// RelativeLatency returns the lifecycle-aware counterpart: the largest
// (worker index − task post index) over all assignments, where a post
// index is the largest worker index seen at post time — the same unit as
// Latency, so the value stays meaningful for sparse or out-of-order index
// feeds. For platforms whose tasks were all present from the start this
// equals Latency; with late posts it measures each task's wait from the
// moment it entered the system. Exact for sequential feeds, a close bound
// under concurrency (the watermark and the worker indices race benignly).
// Folded from the shards' engines like Latency.
func (d *Dispatcher) RelativeLatency() (rel int) {
	d.eachShard(func(_ int, s *shard) { rel = max(rel, s.eng.RelativeLatency()) })
	return rel
}

// Arrived reports how many check-ins have been received (including ones
// bounced because the platform was momentarily complete): every shard's
// routed count plus the front-door bounces. Each term only grows, so the
// fold is monotone across calls even beside live traffic.
func (d *Dispatcher) Arrived() int {
	arrived := int(d.bounced.Load())
	d.eachShard(func(_ int, s *shard) { arrived += s.routed })
	return arrived
}

// Progress returns the number of resolved tasks and the task total (all
// tasks ever posted). Resolved means reached δ or retired before reaching
// it — both never need another worker.
func (d *Dispatcher) Progress() (resolved, total int) {
	// Both counters only grow, and a task is counted in total before it can
	// resolve; loading resolved first keeps resolved ≤ total and each value
	// monotone across calls even while posts and completions race the read.
	resolved = int(d.resolved.Load())
	return resolved, int(d.total.Load())
}

// ShardStats is one shard's progress/credit/load snapshot.
type ShardStats struct {
	// Tasks is the shard's task count (including posted and retired tasks);
	// Completed of them have reached δ and Retired were expired. A tile
	// migration moves the tile's open tasks to the target's list; a task
	// that already settled stays on the list of the shard where it did.
	Tasks     int
	Completed int
	Retired   int
	// Workers is the number of check-ins routed to the shard (including
	// ones arriving after the shard completed); Offered of them were
	// presented to the shard's solver. Workers is the shard's lifetime
	// load account and only ever grows; Imbalance, by contrast, measures
	// over the window since the last tile migration so the metric tracks
	// the current layout (see Imbalance).
	Workers int
	Offered int
	// MigratedIn/MigratedOut count tile migrations that handed tasks to /
	// took tasks from this shard (0 without rebalancing).
	MigratedIn  int
	MigratedOut int
	// QueueDepth is the shard's CheckInAsync backlog at snapshot time —
	// workers enqueued but not yet drained (0 when the async path is
	// unused). Persistent depth at one shard while others sit empty is
	// the signature of a hot shard under skewed traffic.
	QueueDepth int
	// Latency is the shard's latency in global arrival indices: the
	// largest Worker.Index among its assigned workers. The platform's
	// latency is the max over shards.
	Latency int
}

// ShardStats snapshots every shard. Shards are locked one at a time, so the
// view is per-shard consistent but not a global atomic cut; each shard's
// Workers count is monotone non-decreasing across snapshots.
func (d *Dispatcher) ShardStats() []ShardStats {
	out := make([]ShardStats, len(d.shards))
	d.eachShard(func(i int, s *shard) {
		completed, total := s.eng.Progress()
		out[i] = ShardStats{
			Tasks:       total,
			Completed:   completed,
			Retired:     s.eng.Retired(),
			Workers:     s.routed,
			Offered:     s.offered,
			MigratedIn:  s.migratedIn,
			MigratedOut: s.migratedOut,
			Latency:     s.eng.Arrangement().Latency(),
		}
	})
	for i := range out {
		out[i].QueueDepth = d.queues[i].depth()
	}
	return out
}

// Imbalance reports the platform's load imbalance: the busiest shard's
// routed check-ins over the per-shard mean, measured over the window since
// the last tile migration (the whole run when no tile ever migrated). 1.0
// is a perfectly even split, NumShards() means every windowed check-in
// landed on one shard; an empty window — before any check-in, or right
// after a migration — is 1.0 by convention. Under spatially uniform traffic
// fixed striping sits near 1.0 already; skewed scenarios (hotspot, flash
// crowd) push it toward NumShards() unless the balanced layout (or the
// rebalancer) counters the skew.
//
// The window restarts at each migration because lifetime accounts would
// pin the verdict to dead layouts: a shard that handed its hot tiles away
// would stay "busiest" forever on traffic it no longer serves, and the
// metric could never show that a rebalance worked.
//
// Shards are locked one at a time (no global atomic cut), so concurrent
// traffic can skew the sample toward later-read shards; the result is
// still always ≥ 1.0 because each windowed count is monotone non-negative
// and a sample's maximum never sits below its mean.
func (d *Dispatcher) Imbalance() float64 {
	maxRouted, total := 0, 0
	d.eachShard(func(_ int, s *shard) {
		r := s.routed - s.routedBase
		total += r
		maxRouted = max(maxRouted, r)
	})
	if total == 0 {
		return 1
	}
	return float64(maxRouted) * float64(len(d.shards)) / float64(total)
}

// TaskStatus is one task's lifecycle snapshot, in global terms.
type TaskStatus struct {
	ID model.TaskID
	// PostIndex is the arrival clock at post time — the largest worker
	// index seen when the task was posted (0 for initial tasks).
	PostIndex int
	// LastUsed is the global index of the last worker assigned to the task
	// (0 when it has none). While the task is incomplete this is a running
	// value; once Completed it is the task's absolute latency, and
	// LastUsed − PostIndex its relative latency.
	LastUsed  int
	Completed bool
	Retired   bool
}

// TaskStatuses snapshots every task ever posted, in global TaskID order.
// Shards are locked one at a time and only while reading their own tasks
// (per-shard consistent view). The registry stays read-locked throughout,
// as in Credits and RetireTask: a tile migration slipping in between the
// grouping pass and a shard's pass would re-home a task, and its new local
// ID would be looked up in the shard it just left.
func (d *Dispatcher) TaskStatuses() []TaskStatus {
	d.regMu.RLock()
	out := make([]TaskStatus, len(d.records))
	byShard := make([][]int32, len(d.shards))
	for gid, rec := range d.records {
		out[gid].ID = model.TaskID(gid)
		byShard[rec.shard] = append(byShard[rec.shard], int32(gid))
	}
	// Every shard owns at least one task (empty tiles collapse at
	// partitioning), so each per-shard pass does real work.
	for si, gids := range byShard {
		s := d.shards[si]
		s.mu.Lock()
		for _, gid := range gids {
			local := d.records[gid].local
			out[gid].PostIndex = s.eng.TaskPostIndex(local)
			out[gid].LastUsed = s.eng.TaskLastUsed(local)
			out[gid].Completed = s.eng.TaskCompleted(local)
			out[gid].Retired = s.eng.TaskRetired(local)
		}
		s.mu.Unlock()
	}
	d.regMu.RUnlock()
	return out
}

// Credits appends a snapshot of the per-task accumulated Acc* credit, in
// global TaskID order over every task ever posted, to dst and returns the
// extended slice.
func (d *Dispatcher) Credits(dst []float64) []float64 {
	// Holding the registry read lock pins the dense ID space for the whole
	// merge (posts briefly wait; lock order regMu → shard mu matches
	// PostTask).
	d.regMu.RLock()
	base := len(dst)
	dst = append(dst, make([]float64, int(d.total.Load()))...)
	for si, s := range d.shards {
		s.mu.Lock()
		d.ownedCredits(si, dst[base:])
		s.mu.Unlock()
	}
	d.regMu.RUnlock()
	return dst
}

// ownedCredits copies shard si's ledger values into dst (global TaskID
// order) for the tasks the registry says si owns. Caller holds regMu and
// the shard's mutex.
func (d *Dispatcher) ownedCredits(si int, dst []float64) {
	s := d.shards[si]
	for local, acc := range s.eng.Arrangement().Accumulated {
		gid := s.sub.Global[local]
		// Skip evicted ghosts: a migrated task's stale source-side
		// accumulator must not overwrite the live credit owned by the
		// task's current shard (the registry names exactly one owner).
		if rec := d.records[gid]; int(rec.shard) != si || rec.local != model.TaskID(local) {
			continue
		}
		dst[gid] = acc
	}
}

// Arrangement merges the per-shard arrangements into one over the source
// instance (plus any posted tasks): worker indices are already global, task
// IDs are mapped back via each shard's global table. Assignment pairs stay
// with the shard that made them — a migrated task contributes its
// pre-migration pairs through its old shard and later ones through its new
// owner, so the merged view is complete. Accumulated credit is the owning
// shard's ledger value, exactly what Credits reports.
func (d *Dispatcher) Arrangement() *model.Arrangement {
	// Pin the dense ID space during the merge (see Credits).
	d.regMu.RLock()
	merged := model.NewArrangement(int(d.total.Load()))
	for si, s := range d.shards {
		s.mu.Lock()
		for _, p := range s.eng.Arrangement().Pairs {
			merged.Add(p.Worker, s.sub.Global[p.Task], 0) // credit: ownedCredits below
		}
		d.ownedCredits(si, merged.Accumulated)
		s.mu.Unlock()
	}
	d.regMu.RUnlock()
	return merged
}
