package dispatch

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ltc/internal/events"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// Rebalancing defaults; see RebalanceOptions.
const (
	DefaultRebalanceInterval  = 1024
	DefaultRebalanceThreshold = 1.25
	DefaultRebalanceMaxMoves  = 4
	DefaultRebalanceAlpha     = 0.5
)

// ErrRebalanceLayout is returned by New when rebalancing is requested
// without the balanced layout: a striped shard is a single task tile, so
// there is nothing live migration could move.
var ErrRebalanceLayout = fmt.Errorf("dispatch: rebalancing requires the balanced layout: %w", model.ErrNotRebalanceable)

// RebalanceOptions tunes the online rebalancer (Options.Rebalance). The
// rebalancer learns per-tile arrival rates with an exponentially weighted
// moving average folded every Interval arrivals, and migrates tiles from the
// forecast-heaviest shard to the lightest whenever the forecast imbalance
// (heaviest shard's rate over the per-shard mean) exceeds Threshold — the
// prediction-driven assignment of Cheng et al. applied to shard ownership:
// the layout follows the load before the hot shard's backlog materializes.
// Zero values mean the defaults above.
type RebalanceOptions struct {
	// Interval is the forecast granularity: the rebalancer folds its tile
	// counters and re-evaluates the layout every Interval arrivals.
	Interval int
	// Threshold is the minimum forecast imbalance ratio (≥ 1) that triggers
	// migration; below it the layout is left alone.
	Threshold float64
	// MaxMoves caps how many tiles one rebalance pass migrates.
	MaxMoves int
	// Alpha is the EWMA smoothing factor in (0, 1]: 1 forecasts from the
	// last interval alone, smaller values remember more history.
	Alpha float64
}

// withDefaults resolves zero knobs; validate catches out-of-range ones.
func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.Interval == 0 {
		o.Interval = DefaultRebalanceInterval
	}
	if o.Threshold == 0 {
		o.Threshold = DefaultRebalanceThreshold
	}
	if o.MaxMoves == 0 {
		o.MaxMoves = DefaultRebalanceMaxMoves
	}
	if o.Alpha == 0 {
		o.Alpha = DefaultRebalanceAlpha
	}
	return o
}

func (o RebalanceOptions) validate() error {
	if o.Interval < 1 || o.Threshold < 1 || o.MaxMoves < 1 || o.Alpha <= 0 || o.Alpha > 1 {
		return fmt.Errorf("%w: rebalance Interval %d, Threshold %v, MaxMoves %d, Alpha %v",
			ErrBadOptions, o.Interval, o.Threshold, o.MaxMoves, o.Alpha)
	}
	return nil
}

// rebalancer is the online re-sharding engine: a per-owner-tile arrival
// counter array fed (lock-free) from the routing hot path, an EWMA forecast
// over it, and a pass — run inline by the arrival that crosses each
// Interval boundary — that migrates tiles when the forecast says the
// layout no longer matches the traffic.
type rebalancer struct {
	d   *Dispatcher
	opt RebalanceOptions

	// tileLoad counts arrivals per owner tile since the last forecast fold.
	// Written with atomic adds from the routing hot path, swapped to zero by
	// the rebalance pass.
	tileLoad []paddedCounter
	// rate is the EWMA arrivals-per-interval forecast per owner tile. Only
	// the pass holder (see passing) reads or writes it.
	rate []float64
	// owners lists the migratable task tiles, ascending.
	owners []int
	// load is the pass-private per-shard forecast scratch.
	load []float64
	// arrivals is the pass clock: check-ins noted since construction, whose
	// Interval crossings trigger the passes.
	arrivals atomic.Int64

	// passing serializes rebalance passes: the arrival that crosses an
	// Interval boundary claims it and runs the pass inline; concurrent
	// crossings skip theirs (folding intervals is fine — the next crossing
	// sees the accumulated counters). Holding it is what makes rate/load
	// single-writer.
	passing atomic.Bool
	// stopped freezes the layout: set by halt (Dispatcher.Close), it turns
	// every later crossing into a no-op.
	stopped atomic.Bool
}

// paddedCounter is an atomic counter on its own cache line, so per-tile
// arrival counting from many check-in goroutines doesn't false-share.
type paddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

func newRebalancer(d *Dispatcher, opt RebalanceOptions) *rebalancer {
	return &rebalancer{
		d:        d,
		opt:      opt,
		tileLoad: make([]paddedCounter, d.part.NumTiles()),
		rate:     make([]float64, d.part.NumTiles()),
		owners:   d.part.OwnerTiles(),
		load:     make([]float64, len(d.shards)),
	}
}

// halt freezes the layout and waits for any in-flight pass to finish, so
// once it returns no tile ever moves again. Idempotent.
func (rb *rebalancer) halt() {
	rb.stopped.Store(true)
	for rb.passing.Load() {
		runtime.Gosched()
	}
}

// noteArrived advances the pass clock by n arrivals and runs a rebalance
// pass when that crosses an Interval boundary. Bulk ingests (batch runs)
// cross at most one pass per call, which is the point — the forecast
// granularity follows the arrival clock, not the call pattern.
//
// The pass runs inline on the crossing arrival's goroutine, which at every
// call site has already released its shard mutex: a background loop would
// depend on the scheduler granting it a timeslice, which on a saturated
// box it may never get within a stream's lifetime — exactly when the
// layout most needs to move. Concurrent crossings don't pile up: whoever
// loses the passing claim skips, and the skipped interval's counters fold
// into the next pass.
func (rb *rebalancer) noteArrived(n int64) {
	after, iv := rb.arrivals.Add(n), int64(rb.opt.Interval)
	if (after-n)/iv == after/iv || rb.stopped.Load() {
		return
	}
	if !rb.passing.CompareAndSwap(false, true) {
		return // a pass is already running; folding intervals is fine
	}
	if !rb.stopped.Load() { // re-check under the claim so halt is final
		rb.rebalance()
	}
	rb.passing.Store(false)
}

// rebalance folds the interval's tile counters into the EWMA forecast and
// greedily migrates the hottest tiles of the forecast-heaviest shard to the
// lightest shard, stopping at MaxMoves, at Threshold, or when no move
// strictly improves the forecast maximum. Tie-breaks are by lowest index
// throughout, so a given counter history rebalances deterministically.
func (rb *rebalancer) rebalance() {
	alpha := rb.opt.Alpha
	total := 0.0
	for _, o := range rb.owners {
		c := float64(rb.tileLoad[o].n.Swap(0))
		rb.rate[o] = alpha*c + (1-alpha)*rb.rate[o]
		total += rb.rate[o]
	}
	if total <= 0 {
		return
	}
	for i := range rb.load {
		rb.load[i] = 0
	}
	for _, o := range rb.owners {
		rb.load[rb.d.part.TileShard(o)] += rb.rate[o]
	}
	mean := total / float64(len(rb.load))
	for moves := 0; moves < rb.opt.MaxMoves; moves++ {
		h, l := 0, 0
		for i, v := range rb.load {
			if v > rb.load[h] {
				h = i
			}
			if v < rb.load[l] {
				l = i
			}
		}
		if h == l || rb.load[h] < rb.opt.Threshold*mean {
			return
		}
		// Hottest tile on the heavy shard whose move strictly improves the
		// forecast maximum (a tile larger than the gap would just move the
		// hotspot).
		best, bestRate := -1, 0.0
		for _, o := range rb.owners {
			if rb.d.part.TileShard(o) != h {
				continue
			}
			if r := rb.rate[o]; r > bestRate && rb.load[l]+r < rb.load[h] {
				best, bestRate = o, r
			}
		}
		if best < 0 {
			return
		}
		if err := rb.d.MigrateTile(best, l); err != nil {
			return // layout raced away (tests migrating concurrently); retry next interval
		}
		rb.load[h] -= bestRate
		rb.load[l] += bestRate
	}
}

// locate routes a location to its shard, recording the arrival against its
// owner tile when rebalancing is on (off, it costs one nil check).
func (d *Dispatcher) locate(loc geo.Point) int {
	si, owner := d.part.LocateOwner(loc)
	if rb := d.rb; rb != nil {
		rb.tileLoad[owner].n.Add(1)
	}
	return si
}

// noteArrived reports n ingested (or bounced) check-ins to the rebalancer,
// which may run a pass on the caller's goroutine — so the caller holds no
// lock. With rebalancing off nothing is counted: the arrival total lives in
// the shards (see Arrived).
func (d *Dispatcher) noteArrived(n int) {
	if rb := d.rb; rb != nil {
		rb.noteArrived(int64(n))
	}
}

// Rebalancing reports whether the online rebalancer is active.
func (d *Dispatcher) Rebalancing() bool { return d.rb != nil }

// Migrations reports how many tile migrations have been performed so far
// (by the rebalancer or by explicit MigrateTile calls): each one counted
// once, at the shard it moved tasks into (see eachShard).
func (d *Dispatcher) Migrations() (n int) {
	d.eachShard(func(_ int, s *shard) { n += s.migratedIn })
	return n
}

// MigrateTile hands one task tile — its routing entry and its open tasks'
// full solver state — from its current shard to shard `to`, without stopping
// ingestion. Tasks that already completed or were retired have no future to
// hand over and stay listed (ShardStats, the registry) where they settled. The rebalancer calls this automatically; it is exported so
// harnesses and tests can force deterministic migrations.
//
// Protocol (see CONCURRENCY.md, "Live tile migration"): the registry lock is
// taken first (pinning the global ID space and serializing migrations with
// PostTask), then both shard mutexes in index order. Holding the source's
// mutex quiesces its slice of the ingestion paths — per-call check-ins,
// batch runs and the shard's async drainer all serialize on it — so the
// engines' evict/adopt pairs run on frozen state. The Partition.Locate entry
// swaps (atomically, tile by tile) while both shards are still held, so by
// the time any check-in can observe the new routing, the target owns every
// open task of the tile. Workers already sitting in the source shard's async queue
// keep draining at the source — a benign misroute, identical to a check-in
// that raced the swap (assignment quality only; no worker or task is lost).
// Migrating a tile onto its current owner is a no-op.
func (d *Dispatcher) MigrateTile(tile, to int) error {
	// The registry lock is released before the TileMigrated publish below:
	// the bus lock is a leaf that must never be reachable under regMu or a
	// shard mutex (CONCURRENCY.md "Event subscriptions"; enforced by the
	// lockorder analyzer, which caught the previous defer-based version
	// holding regMu through the publish).
	d.regMu.Lock()
	from, migrated, err := d.migrateTileLocked(tile, to)
	d.regMu.Unlock()
	if err != nil || !migrated {
		return err
	}
	d.bus.Publish(events.Event{
		Kind: events.TileMigrated, Task: -1,
		Tile: tile, FromShard: from, ToShard: to,
	})
	return nil
}

// migrateTileLocked runs the migration protocol with regMu held. It reports
// the source shard and whether a migration actually happened (from == to is
// a no-op that must neither count nor publish).
func (d *Dispatcher) migrateTileLocked(tile, to int) (from int, migrated bool, err error) {
	if !d.part.Rebalanceable() {
		return 0, false, model.ErrNotRebalanceable
	}
	if to < 0 || to >= len(d.shards) {
		return 0, false, fmt.Errorf("dispatch: migration target shard %d out of range [0,%d)", to, len(d.shards))
	}
	if tile < 0 || tile >= d.part.NumTiles() {
		return 0, false, fmt.Errorf("dispatch: migration tile %d out of range [0,%d)", tile, d.part.NumTiles())
	}
	from = d.part.TileShard(tile) // tile ownership checked by part.MigrateTile below
	if from == to {
		return from, false, nil
	}
	sf, st := d.shards[from], d.shards[to]

	first, second := sf, st
	if to < from {
		first, second = st, sf
	}
	first.mu.Lock()
	second.mu.Lock() //ltc:ascending

	// Only the tile's open tasks move. A completed or retired one will never
	// be assigned again, so it stays registered with the shard where it
	// settled (EvictTask refuses it, and the ghosts of earlier migrations).
	var migrateErr error
	for local := 0; local < len(sf.sub.Global); local++ {
		lid := model.TaskID(local)
		src := sf.sub.SourceTask(lid)
		if d.part.OwnerTile(src.Loc) != tile {
			continue
		}
		assertLocked(&sf.mu)
		snap, open, err := sf.eng.EvictTask(lid)
		if err != nil {
			migrateErr = err
			break
		}
		if !open {
			continue
		}
		newLocal := st.sub.AppendTask(src)
		assertLocked(&st.mu)
		if err := st.eng.AdoptTask(newLocal, snap); err != nil {
			// Unreachable unless an engine invariant is broken; roll the
			// append back so the target sub-instance stays in step.
			st.sub.TruncateLast()
			migrateErr = err
			break
		}
		d.records[src.ID] = taskRecord{shard: int32(to), local: newLocal.ID}
	}
	if migrateErr == nil {
		migrateErr = d.part.MigrateTile(tile, to)
	}
	if migrateErr == nil {
		sf.migratedOut++
		st.migratedIn++
	}
	second.mu.Unlock()
	first.mu.Unlock()
	if migrateErr != nil {
		return from, false, migrateErr
	}

	// The imbalance window restarts at every migration, so the metric
	// reflects current ownership instead of crowning the shard that
	// already handed its hot tiles away "busiest" forever. All shards
	// rebase (one at a time — windows stay comparable in length because
	// they all restart at this same migration).
	d.eachShard(func(_ int, s *shard) { s.routedBase = s.routed })
	return from, true, nil
}
