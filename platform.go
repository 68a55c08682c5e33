package ltc

import (
	"context"
	"fmt"
	"runtime"

	"ltc/internal/dispatch"
	"ltc/internal/events"
	"ltc/internal/geo"
)

// Platform serves concurrent check-in streams: the task space is split into
// spatial shards (grid tiles over the task bounding rect), one independent
// online solver runs per shard, and each arriving worker is routed to the
// shard owning its location. Check-ins serialize per shard only, so calls
// landing on disjoint shards proceed fully in parallel — the scalable
// counterpart of the single-threaded Session.
//
// Every check-in returns a structured Receipt (granted tasks with
// per-assignment credit and completion, the worker's shard, the
// platform-done flag), and Subscribe delivers the platform's lifecycle
// events (TaskPosted, TaskRetired, TaskCompleted, PlatformDone) as an
// ordered stream — service callers never poll after a check-in.
//
// The task set is mutable while the platform runs: PostTask adds a task
// mid-stream (it starts its δ-threshold accumulation from zero at its post
// index) and RetireTask expires a stale one. Both are safe to call
// concurrently with CheckIn; see CONCURRENCY.md for shard ownership and the
// latency accounting of late-posted tasks.
//
// Arrivals can also be ingested in bulk: CheckInBatch processes a batch
// with sequential semantics under amortized locking, and CheckInAsync (or
// the cancellable CheckInAsyncCtx) routes workers into per-shard bounded
// queues drained by background goroutines, with Flush/Close as
// deterministic completion points — the high-throughput path (see
// CONCURRENCY.md, "Batched and asynchronous ingestion").
//
// With Shards = 1 a Platform fed workers sequentially in arrival order
// produces exactly the Session's arrangement. With more shards each worker
// is only considered for its own shard's tasks, which changes (usually
// raises) the global latency; see CONCURRENCY.md for the shard model and
// its latency semantics.
type Platform struct {
	d        *dispatch.Dispatcher
	eventBuf int
}

// Platform errors.
var (
	// ErrPlatformDone is returned by CheckIn (and, with a partial result,
	// CheckInBatch) once every task has completed.
	ErrPlatformDone = dispatch.ErrDone
	// ErrPlatformClosed is returned by CheckInAsync after Close.
	ErrPlatformClosed = dispatch.ErrClosed
)

// DefaultEventBuffer is the per-subscriber event buffer capacity used by
// Subscribe when WithEventBuffer was not given.
const DefaultEventBuffer = 256

// RebalanceOptions tunes the adaptive live re-sharding enabled by
// WithRebalance: the arrival-count interval between forecast folds, the
// imbalance threshold that triggers a pass, the per-pass migration cap and
// the EWMA smoothing factor. The zero value of each field means its
// default; see the dispatch layer's DefaultRebalance* constants.
type RebalanceOptions = dispatch.RebalanceOptions

// ShardStats is one shard's progress snapshot, re-exported from the
// dispatch layer.
type ShardStats = dispatch.ShardStats

// TaskStatus is one task's lifecycle snapshot (post index, last assigned
// worker, completion/retirement), re-exported from the dispatch layer.
type TaskStatus = dispatch.TaskStatus

// Platform event re-exports: Subscribe delivers these.
type (
	// Event is one platform lifecycle event (see the EventTask* kinds).
	Event = events.Event
	// EventKind discriminates platform events.
	EventKind = events.Kind
	// Subscription is one subscriber's bounded event feed.
	Subscription = events.Subscription
)

// The platform event kinds delivered by Subscribe.
const (
	// EventTaskPosted fires when PostTask adds a task mid-stream.
	EventTaskPosted = events.TaskPosted
	// EventTaskRetired fires the first time a task is retired.
	EventTaskRetired = events.TaskRetired
	// EventTaskCompleted fires when a task reaches its quality threshold;
	// Event.Worker is the completing worker — the task's absolute latency.
	EventTaskCompleted = events.TaskCompleted
	// EventPlatformDone fires when the count of open tasks reaches zero
	// (again after every revival by PostTask).
	EventPlatformDone = events.PlatformDone
	// EventTileMigrated fires when live re-sharding (WithRebalance, or an
	// explicit migration) moves a tile between shards; Event.Tile,
	// Event.FromShard and Event.ToShard identify the move, and Event.Task
	// is -1 (the event concerns no single task).
	EventTileMigrated = events.TileMigrated
)

// NewPlatform builds a sharded platform running the given online algorithm
// in every shard. The instance's Workers slice may be empty — workers are
// supplied via CheckIn — but Tasks, Epsilon, K, Model and MinAcc must be
// set.
func NewPlatform(in *Instance, algo Algorithm, opts ...Option) (*Platform, error) {
	c := newConfig(opts)
	if c.shards < 0 {
		return nil, fmt.Errorf("ltc: shard count must be ≥ 0, got %d", c.shards)
	}
	if c.shards == 0 {
		c.shards = runtime.GOMAXPROCS(0)
	}
	if c.eventBuffer < 1 {
		c.eventBuffer = DefaultEventBuffer
	}
	if err := validateStreaming(in); err != nil {
		return nil, err
	}
	factory, err := onlineFactory(algo, c.seed)
	if err != nil {
		return nil, err
	}
	var loadSample []geo.Point
	if c.loadPrefix > 0 && c.loadPrefix < len(in.Workers) {
		loadSample = make([]geo.Point, c.loadPrefix)
		for i, w := range in.Workers[:c.loadPrefix] {
			loadSample[i] = w.Loc
		}
	}
	d, err := dispatch.New(in, c.shards, factory, dispatch.Options{
		QueueCap:   c.queueCap,
		Balanced:   c.balanced,
		LoadSample: loadSample,
		Rebalance:  c.rebalance,
	})
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	return &Platform{d: d, eventBuf: c.eventBuffer}, nil
}

// CheckIn routes the worker to its spatial shard and returns the check-in
// Receipt: the tasks granted to it (with per-assignment quality credit and
// a completion flag marking tasks this very check-in finished), the shard
// it routed to, and whether the platform as a whole is done — so callers
// never re-poll TaskStatuses or Progress after a check-in. It returns
// ErrPlatformDone (with a bounced receipt) once every task has completed.
// Safe for concurrent use from any number of goroutines; the returned
// Receipt is caller-owned.
//
// The worker's Index is its global arrival index and must be ≥ 1; unlike
// Session.Arrive, indices need not be presented in order — concurrent
// streams cannot guarantee ordering, and assignment decisions depend only
// on worker locations and accuracies, never on the index itself.
func (p *Platform) CheckIn(w Worker) (Receipt, error) {
	r, err := p.d.CheckIn(w)
	if err != nil {
		return r, fmt.Errorf("ltc: %w", err)
	}
	return r, nil
}

// CheckInBatch ingests a batch of workers with the exact semantics of
// calling CheckIn for each in order, at a fraction of the per-call
// overhead: consecutive workers landing on the same shard are processed
// under a single shard-lock acquisition. out[i] is ws[i]'s Receipt. When
// the platform completes mid-batch, out is truncated to the ingested prefix
// and ErrPlatformDone is returned; the remaining workers are not observed
// and may be re-presented after a PostTask revives the platform. A worker
// with a non-positive index fails the whole batch upfront. Safe for
// concurrent use; see CONCURRENCY.md for the batched ordering contract.
func (p *Platform) CheckInBatch(ws []Worker) ([]Receipt, error) {
	out, err := p.d.CheckInBatch(ws)
	if err != nil {
		return out, fmt.Errorf("ltc: %w", err)
	}
	return out, nil
}

// CheckInBatchInto is CheckInBatch appending into a caller-provided receipt
// slice: the batch's receipts are appended to dst (which may be nil) and
// the extended slice is returned. A sustained ingestion loop recycling
// dst[:0] across batches pays no per-batch receipt allocation once the
// slice has grown to its working size. Error semantics match CheckInBatch;
// on ErrPlatformDone the returned slice holds dst plus the ingested prefix.
func (p *Platform) CheckInBatchInto(ws []Worker, dst []Receipt) ([]Receipt, error) {
	out, err := p.d.CheckInBatchInto(ws, dst)
	if err != nil {
		return out, fmt.Errorf("ltc: %w", err)
	}
	return out, nil
}

// CheckInAsync enqueues the worker into its shard's bounded queue and
// returns immediately — the fire-and-forget ingestion path. A background
// drainer per shard pops runs of queued workers and processes each run
// under one shard-lock acquisition, so sustained streams ingest faster than
// per-call CheckIn. Assignments stay observable through Arrangement,
// Credits, TaskStatuses and the Subscribe event stream; Flush gives the
// deterministic completion point. The call blocks while the shard's queue
// is full (backpressure) and returns ErrPlatformClosed after Close; use
// CheckInAsyncCtx when the block must be cancellable. Safe for concurrent
// use.
func (p *Platform) CheckInAsync(w Worker) error {
	if err := p.d.CheckInAsync(w); err != nil {
		return fmt.Errorf("ltc: %w", err)
	}
	return nil
}

// CheckInAsyncCtx is CheckInAsync with cancellable backpressure: while the
// worker's shard queue is full the call blocks until a slot frees, the
// platform closes (ErrPlatformClosed), or ctx is done — in which case the
// worker was NOT enqueued and ctx.Err() is returned. A nil error means the
// worker is queued and a later Flush will observe it; any error means the
// platform never saw it. Safe for concurrent use.
func (p *Platform) CheckInAsyncCtx(ctx context.Context, w Worker) error {
	if err := p.d.CheckInAsyncCtx(ctx, w); err != nil {
		if err == ctx.Err() {
			return err
		}
		return fmt.Errorf("ltc: %w", err)
	}
	return nil
}

// Flush blocks until every worker enqueued by CheckInAsync before the call
// has been fully ingested: latency, progress and per-worker assignments
// then match what the same stream fed through CheckIn would have produced.
// It returns immediately when the async path was never used.
func (p *Platform) Flush() { p.d.Flush() }

// Close shuts the asynchronous ingestion path down: subsequent (and
// blocked) CheckInAsync calls fail with ErrPlatformClosed, everything
// already queued is ingested, and the drainers exit. Synchronous CheckIn,
// CheckInBatch, the task lifecycle and event subscriptions remain usable.
// Safe to call more than once.
func (p *Platform) Close() error { return p.d.Close() }

// Subscribe registers a subscriber for the platform's lifecycle events —
// EventTaskPosted, EventTaskRetired, EventTaskCompleted, EventPlatformDone
// and, under live re-sharding, EventTileMigrated — delivered in
// publication order through a bounded buffered channel
// (capacity WithEventBuffer, default DefaultEventBuffer). Publishing never
// blocks a check-in: a subscriber that lets its buffer fill loses events
// (Subscription.Dropped counts them), while one that keeps up receives
// every event exactly once. Only events published after Subscribe returns
// are delivered; call Subscription.Close to detach. See CONCURRENCY.md for
// the full ordering and drop contract.
func (p *Platform) Subscribe() *Subscription { return p.d.Subscribe(p.eventBuf) }

// PostTask adds a task to the live platform and returns its global TaskID
// (dense: initial tasks keep 0..n-1, posted tasks follow in post order).
// The task is owned by the shard its location routes to — the same shard
// every worker at that location routes to, so late-posted tasks are always
// reachable, including in regions that held no initial task. Its post index
// (the largest worker index seen so far) anchors the relative latency
// accounting. Only the provided location matters; the ID field of the
// argument is ignored. Safe to call concurrently with CheckIn.
func (p *Platform) PostTask(t Task) (TaskID, error) {
	id, err := p.d.PostTask(t)
	if err != nil {
		return 0, fmt.Errorf("ltc: %w", err)
	}
	return id, nil
}

// RetireTask expires the task with the given ID: it stops being assignable
// and no longer blocks Done. Retiring a completed or already-retired task
// is a harmless no-op; retiring an unknown ID is an error. Safe to call
// concurrently with CheckIn.
func (p *Platform) RetireTask(id TaskID) error {
	if err := p.d.RetireTask(id); err != nil {
		return fmt.Errorf("ltc: %w", err)
	}
	return nil
}

// Done reports whether every live task has reached the quality threshold.
// Retired tasks don't block completion, and a PostTask can revive a done
// platform.
func (p *Platform) Done() bool { return p.d.Done() }

// Latency returns the LTC objective so far in global arrival indices: the
// largest Index among checked-in workers that received an assignment. It is
// the max of the per-shard latencies ShardStats reports, read the same way:
// shards locked one at a time, per-shard consistent, exact once no check-in
// is in flight.
func (p *Platform) Latency() int { return p.d.Latency() }

// RelativeLatency returns the lifecycle-aware objective: the largest
// (worker index − task post index) over all assignments. Equal to Latency
// when every task was present from the start; with late posts it measures
// each task's wait from the moment it entered the system. Folded from the
// shards like Latency: locked one at a time, per-shard consistent.
func (p *Platform) RelativeLatency() int { return p.d.RelativeLatency() }

// WorkersSeen reports how many check-ins have been observed: every call
// presenting a valid (positive) arrival index counts, including calls
// bounced with ErrPlatformDone while the platform was momentarily
// complete. Calls rejected for an invalid index are not observed. This is
// the same contract as Session.WorkersSeen, pinned by
// TestWorkersSeenContract. The count is the sum of ShardStats' Workers plus
// the bounced calls, with the shards locked one at a time: per-shard
// consistent, monotone across calls, exact once no check-in is in flight.
func (p *Platform) WorkersSeen() int { return p.d.Arrived() }

// Shards reports the effective shard count.
func (p *Platform) Shards() int { return p.d.NumShards() }

// Balanced reports whether the load-aware tile→shard layout is active
// (WithBalancedShards; always false with one shard, where the layouts
// coincide).
func (p *Platform) Balanced() bool { return p.d.Balanced() }

// Rebalancing reports whether adaptive live re-sharding is active
// (WithRebalance on a multi-shard balanced platform; false when the layout
// collapsed to one shard, where there is nothing to migrate).
func (p *Platform) Rebalancing() bool { return p.d.Rebalancing() }

// Migrations reports how many tile migrations have committed so far: the sum
// of ShardStats' MigratedIn, with the shards locked one at a time like
// ShardStats itself (per-shard consistent).
func (p *Platform) Migrations() int { return p.d.Migrations() }

// Imbalance reports the platform's current load imbalance: the busiest
// shard's routed check-ins over the per-shard mean (1.0 = perfectly even,
// Shards() = everything on one shard; 1.0 by convention before any
// check-in). The accounting window restarts at every tile migration, so
// under live re-sharding the ratio reflects the current layout rather than
// crediting a migrated-away hotspot to its old shard forever. Per-shard
// load accounts are in ShardStats (Workers and, for the async path,
// QueueDepth).
//
// Concurrent snapshot semantics: shards are locked one at a time, so under
// live traffic the sample is per-shard consistent but not a global atomic
// cut — shards read later may include check-ins that arrived after earlier
// shards were read. The value is still always ≥ 1.0: every per-shard count
// is a monotone non-negative total, and the maximum of any sample is never
// below its mean, torn cut or not.
func (p *Platform) Imbalance() float64 { return p.d.Imbalance() }

// Progress returns the number of resolved tasks (reached δ, or retired
// before reaching it) and the task total over every task ever posted.
func (p *Platform) Progress() (resolved, total int) { return p.d.Progress() }

// TaskStatuses snapshots every task ever posted, in TaskID order: post
// index, last assigned worker (the task's absolute latency once completed),
// completion and retirement flags.
func (p *Platform) TaskStatuses() []TaskStatus { return p.d.TaskStatuses() }

// ShardStats snapshots per-shard progress: task counts, completion, routed
// and offered workers, and the shard's latency in global arrival indices
// (the platform latency is the max over shards).
//
// Like Imbalance, the snapshot locks shards one at a time: each entry is
// internally consistent, but entries taken later can reflect check-ins that
// arrived after earlier entries were read. Cross-shard aggregates computed
// from one snapshot (sums, maxima of the monotone counters) are therefore
// bounded by the platform's state at the first and last shard read, not an
// instant between them.
func (p *Platform) ShardStats() []ShardStats { return p.d.ShardStats() }

// Credits appends a snapshot of the per-task accumulated Acc* credit to dst
// and returns the extended slice.
func (p *Platform) Credits(dst []float64) []float64 { return p.d.Credits(dst) }

// Arrangement merges the per-shard assignments into one arrangement over
// the platform's instance (global worker indices and TaskIDs). It snapshots
// live state and may be called at any time.
func (p *Platform) Arrangement() *Arrangement { return p.d.Arrangement() }
