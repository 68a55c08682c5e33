package model

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ltc/internal/geo"
)

// SubInstance is one shard of a partitioned Instance: a complete, standalone
// LTC instance over a subset of the source tasks, plus the mapping from its
// local, consecutive TaskIDs back to the source's global TaskIDs.
//
// The sub-instance shares the source's Epsilon, K and MinAcc; its Workers
// slice is empty — shards are fed workers at check-in time. Its Model wraps
// the source's so that Predict always sees the *source* task (global ID):
// ID-sensitive models like MatrixAccuracy stay correct even though the
// sub-instance renumbers tasks locally.
//
// A SubInstance can grow after construction via AppendTask (online task
// posting). Growth is not synchronized here — the dispatch layer serializes
// it under the owning shard's mutex, together with every read of the shard's
// task slices.
type SubInstance struct {
	In *Instance
	// Global maps a local TaskID (position in In.Tasks) to the task's
	// stable global ID in the source instance.
	Global []TaskID
	// source holds, per local task, the task as the source instance sees it
	// (global ID + location) — the view ID-sensitive accuracy models need.
	// For tasks posted after partitioning this is the posted task itself.
	source []Task
}

// AppendTask grows the sub-instance with a task posted online: global is the
// task as the platform sees it (stable global ID). The returned task carries
// the shard-local ID. Callers must serialize AppendTask with every other
// access to the sub-instance (the dispatch layer holds the shard mutex).
func (s *SubInstance) AppendTask(global Task) Task {
	local := Task{ID: TaskID(len(s.In.Tasks)), Loc: global.Loc}
	s.In.Tasks = append(s.In.Tasks, local)
	s.Global = append(s.Global, global.ID)
	s.source = append(s.source, global)
	return local
}

// SourceTask returns the source-instance view (global ID + location) of the
// given local task.
func (s *SubInstance) SourceTask(local TaskID) Task { return s.source[local] }

// TruncateLast rolls back the most recent AppendTask — the dispatch layer's
// recovery when its engine rejects a post or an adoption (the dense-ID
// check: the sub-instance ran ahead of the engine). Same serialization
// requirements as AppendTask.
func (s *SubInstance) TruncateLast() {
	n := len(s.In.Tasks) - 1
	s.In.Tasks = s.In.Tasks[:n]
	s.Global = s.Global[:n]
	s.source = s.source[:n]
}

// Partition splits an Instance's task set into spatially coherent shards
// behind one routing table, tile → owner tile → shard: the task bounding rect
// is tiled by a geo.TileGrid, every tile holding a task owns itself and every
// task-free tile is folded onto the task tile that serves its traffic
// (geo.TileGrid.Owners), and each owner tile belongs to one shard. Striped
// layouts tile the rect into ~n near-square tiles and give every task tile its
// own shard; balanced layouts tile it much finer and pack the task tiles onto
// shards by load (see PartitionOptions). Either way every tile has a shard,
// so Locate — for a worker check-in or a task posted online — is a single
// table read.
//
// The table is built from the initial task set. Balanced layouts support
// live tile migration (MigrateTile), which swaps tile→shard entries with
// atomic stores — Locate reads the table with atomic loads, so routing stays
// safe for concurrent use while a migration is in flight. Tasks posted after
// construction do not change routing: they are owned by the shard Locate
// picks for their location, which is by construction the same shard every
// worker at that location routes to (so late-posted tasks are always
// reachable).
type Partition struct {
	Shards []*SubInstance
	// Balanced records whether the load-aware tile→shard pack is in effect
	// (see PartitionOptions.Balanced) — the layouts whose shards hold more
	// than one task tile, and so the ones MigrateTile can rebalance.
	Balanced bool

	// grid is the tiling: geometry and the clamped location→tile index.
	grid geo.TileGrid
	// freeOwner maps every tile to the task tile whose tasks serve its
	// traffic; task tiles own themselves. An owner tile is the unit of
	// migration: it moves together with its free satellites, so routing and
	// task ownership never diverge. Immutable after construction.
	freeOwner []int32
	// tileShard maps every tile to its shard (its owner tile's shard).
	// MigrateTile swaps entries while Locate reads them; the slice itself
	// never changes after construction.
	tileShard []atomic.Int32
}

// ErrBadShardCount is returned when a non-positive shard count is requested.
var ErrBadShardCount = errors.New("model: shard count must be positive")

// PartitionOptions tunes PartitionInstanceOpts. The zero value is fixed
// spatial striping: one near-square task tile per shard.
type PartitionOptions struct {
	// Balanced switches the owner tile→shard assignment from fixed striping
	// (one near-square task tile per shard) to a load-aware greedy pack: the
	// task bounding rect is tiled much finer than the shard count and task
	// tiles are packed onto shards largest-load-first, so a spatial hotspot
	// splits across shards instead of degenerating into one hot shard.
	// Ignored (striping kept) for n = 1, where both modes coincide.
	Balanced bool
	// LoadSample approximates the expected check-in distribution for the
	// balanced pack — typically the known worker locations, or a sampled
	// subset of them. Nil falls back to the task locations (demand as a
	// proxy for traffic). Ignored unless Balanced is set.
	LoadSample []geo.Point
}

// balancedTileFactor is how many tiles per requested shard the balanced
// mode carves the bounding rect into. Finer tiles split hotspots across
// more shards at the cost of a larger (still O(1)-lookup) routing table;
// 64 keeps the largest atomic tile well under one shard's fair share for
// every scenario in the workload suite.
const balancedTileFactor = 64

// PartitionInstanceOpts partitions in's tasks into at most n spatial shards.
// Fewer shards are returned when some tiles hold no tasks (or n exceeds the
// task count — a shard is never empty). See PartitionOptions for the
// balanced tile→shard mode. Whatever the mode, every location keeps routing
// to exactly one shard (the same shard for workers and posted tasks alike),
// local task order follows ascending global TaskID, and n = 1 yields a single
// shard whose sub-instance lists the source tasks in their original order, so
// any algorithm run on it behaves exactly as on the source — the dispatch
// layer's latency and ordering semantics are mode-independent.
func PartitionInstanceOpts(in *Instance, n int, opt PartitionOptions) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadShardCount, n)
	}
	if len(in.Tasks) == 0 {
		return nil, ErrNoTasks
	}
	if n > len(in.Tasks) {
		n = len(in.Tasks)
	}
	balanced := opt.Balanced && n > 1
	pts := make([]geo.Point, len(in.Tasks))
	for i, t := range in.Tasks {
		pts[i] = t.Loc
	}
	rect, _ := geo.BoundingRect(pts)

	p := &Partition{}
	if balanced {
		p.grid = geo.FineTileGrid(rect, balancedTileFactor*n)
	} else {
		// cols·rows ≤ n, so one shard per task tile never exceeds the request
		// (task-free tiles can only shrink it further).
		p.grid = geo.NearSquareTileGrid(rect, n)
	}
	p.freeOwner = p.grid.Owners(pts)

	// Count tasks per tile, keeping each task's tile for the fill below.
	tileOf, tileCount := make([]int32, len(in.Tasks)), make([]int, p.grid.NumTiles())
	for i, pt := range pts {
		tileOf[i] = int32(p.grid.Index(pt))
		tileCount[tileOf[i]]++
	}

	// shardOf assigns every owner (task) tile its shard.
	var shardOf []int32
	var shards int
	if balanced {
		shardOf, shards = p.packBalanced(n, tileOf, tileCount, opt.LoadSample)
	} else {
		// Striped: one shard per task tile, in ascending tile order.
		shardOf = make([]int32, len(tileCount))
		for c, k := range tileCount {
			if k > 0 {
				shardOf[c] = int32(shards)
				shards++
			}
		}
	}

	// Carve every shard's ID list from one block, then fill the lists in
	// global order, so each lists ascending global TaskIDs.
	shardSize := make([]int, shards)
	for _, c := range tileOf {
		shardSize[shardOf[c]]++
	}
	block, shardIDs := make([]TaskID, len(in.Tasks)), make([][]TaskID, shards)
	for s, k := range shardSize {
		shardIDs[s], block = block[:0:k], block[k:]
	}
	for i, t := range in.Tasks {
		s := shardOf[tileOf[i]]
		shardIDs[s] = append(shardIDs[s], t.ID)
	}
	p.Shards = make([]*SubInstance, shards)
	for s, ids := range shardIDs {
		p.Shards[s] = NewSubInstance(in, ids)
	}
	p.tileShard = make([]atomic.Int32, len(tileCount))
	for c, o := range p.freeOwner {
		p.tileShard[c].Store(shardOf[o])
	}
	// A degenerate pack can collapse to one shard (every task in one fine
	// tile); the layouts then coincide, as with a requested n=1.
	p.Balanced = balanced && shards > 1
	return p, nil
}

// packBalanced assigns task tiles to at most n shards by load: it estimates
// each owner tile's load from the sample (traffic on a task-free tile counts
// toward the task tile that serves it), packs the task tiles onto bins by
// greedy largest-load-first balance, and numbers the bins by their smallest
// global TaskID. tileOf is each task's tile, tileCount each tile's task
// count. It returns the per-tile shard (meaningful for task tiles only) and
// the shard count.
func (p *Partition) packBalanced(n int, tileOf []int32, tileCount []int, sample []geo.Point) ([]int32, int) {
	// Sampled load profile: count sample points per owner tile. With no
	// sample, task counts stand in for traffic.
	load := make([]float64, len(tileCount))
	if len(sample) == 0 {
		for c, k := range tileCount {
			load[c] = float64(k)
		}
	} else {
		for _, pt := range sample {
			load[p.OwnerTile(pt)]++
		}
		// A task tile no sample point hit still carries its tasks: weight
		// it in so the pack never stacks all quiet tiles on one shard.
		for c, k := range tileCount {
			if k > 0 && load[c] == 0 {
				load[c] = float64(k) / float64(len(tileOf))
			}
		}
	}

	// Greedy balance (LPT): task tiles largest-load-first, each onto the
	// currently lightest bin. Ties break on tile index / bin index, so
	// the pack is deterministic.
	taskTiles := make([]int, 0, len(tileCount))
	for c, k := range tileCount {
		if k > 0 {
			taskTiles = append(taskTiles, c)
		}
	}
	sort.SliceStable(taskTiles, func(i, j int) bool {
		if load[taskTiles[i]] != load[taskTiles[j]] {
			return load[taskTiles[i]] > load[taskTiles[j]]
		}
		return taskTiles[i] < taskTiles[j]
	})
	if n > len(taskTiles) {
		n = len(taskTiles) // a shard is never empty
	}
	binLoad := make([]float64, n)
	binOf := make([]int32, len(tileCount)) // task tile → bin
	for _, c := range taskTiles {
		best := 0
		for b := 1; b < n; b++ {
			if binLoad[b] < binLoad[best] {
				best = b
			}
		}
		binOf[c] = int32(best)
		binLoad[best] += load[c]
	}

	// Renumber bins by their smallest global TaskID — the order a walk over
	// the tasks first meets them — so shard order (and with it ShardStats,
	// stream replays, ...) is deterministic and independent of the pack's
	// visit order.
	rank := make([]int32, n)
	for b := range rank {
		rank[b] = -1
	}
	next := int32(0)
	for _, c := range tileOf {
		if b := binOf[c]; rank[b] < 0 {
			rank[b] = next
			next++
		}
	}
	for _, c := range taskTiles {
		binOf[c] = rank[binOf[c]]
	}
	return binOf, n
}

// NewSubInstance builds a standalone SubInstance over the given ascending
// global task IDs of in: tasks are renumbered to local consecutive IDs, the
// accuracy model is wrapped so ID-sensitive models keep seeing the source
// task, and the radius bound is forwarded when the source model has one.
// This is the extraction primitive shared by the dispatch layer's spatial
// shards and the cluster tier's per-node instances. The sub-instance's
// Workers slice is empty — callers feed workers at check-in time.
func NewSubInstance(in *Instance, ids []TaskID) *SubInstance {
	sub := &SubInstance{
		In: &Instance{
			Tasks:   make([]Task, len(ids)),
			Epsilon: in.Epsilon,
			K:       in.K,
			MinAcc:  in.MinAcc,
		},
		Global: make([]TaskID, len(ids)),
		source: make([]Task, len(ids)),
	}
	for local, gid := range ids {
		sub.In.Tasks[local] = Task{ID: TaskID(local), Loc: in.Tasks[gid].Loc}
		sub.Global[local] = gid
		sub.source[local] = in.Tasks[gid]
	}
	sub.In.Model = newShardModel(in, sub)
	return sub
}

// shardModel adapts the source accuracy model to a shard's local task
// numbering: Predict is forwarded with the source task, so models that key
// off Task.ID (MatrixAccuracy) or any other task identity see global IDs.
// It reads the sub-instance's growable task table, so tasks appended online
// resolve too.
type shardModel struct {
	src *Instance
	sub *SubInstance
}

func newShardModel(src *Instance, sub *SubInstance) AccuracyModel {
	m := &shardModel{src: src, sub: sub}
	if rb, ok := src.Model.(RadiusBounder); ok {
		return &boundedShardModel{shardModel: m, RadiusBounder: rb}
	}
	return m
}

// Predict implements AccuracyModel.
func (m *shardModel) Predict(w Worker, t Task) float64 {
	return m.src.Model.Predict(w, m.sub.source[t.ID])
}

// boundedShardModel additionally is the source model's RadiusBounder, so the
// per-shard CandidateIndex keeps its spatial pruning. A location needs no
// translation — a shard's task sits where its source task does — so
// EligibilityRadius and PredictAt are the source's own.
type boundedShardModel struct {
	*shardModel
	RadiusBounder
}

// NumShards reports the number of (non-empty) shards.
func (p *Partition) NumShards() int { return len(p.Shards) }

// Locate routes a location to a shard: the shard of the task tile that owns
// its enclosing tile. Safe for concurrent use, including while MigrateTile
// swaps entries.
func (p *Partition) Locate(loc geo.Point) int {
	return int(p.tileShard[p.grid.Index(loc)].Load())
}

// ErrNotRebalanceable is returned by MigrateTile on layouts with nothing to
// migrate (striped layouts, whose shards are one task tile each, and
// balanced packs that collapsed to one shard).
var ErrNotRebalanceable = errors.New("model: partition layout does not support tile migration")

// Rebalanceable reports whether the partition supports MigrateTile: only a
// balanced layout packs several task tiles per shard, and a pack that
// collapsed to one shard has nowhere to migrate to.
func (p *Partition) Rebalanceable() bool { return p.Balanced }

// NumTiles returns the size of the tile grid (task-free tiles included).
func (p *Partition) NumTiles() int { return p.grid.NumTiles() }

// OwnerTile returns the task tile serving loc's traffic — the migration
// unit loc belongs to.
func (p *Partition) OwnerTile(loc geo.Point) int {
	return int(p.freeOwner[p.grid.Index(loc)])
}

// LocateOwner is Locate plus OwnerTile, sharing one tile computation — the
// variant the load forecaster rides on.
func (p *Partition) LocateOwner(loc geo.Point) (shard, ownerTile int) {
	c := p.grid.Index(loc)
	return int(p.tileShard[c].Load()), int(p.freeOwner[c])
}

// OwnerTiles returns the task tiles — the units migration can move on a
// rebalanceable layout — in ascending tile order. The result is a fresh
// slice.
func (p *Partition) OwnerTiles() []int {
	tiles := make([]int, 0, len(p.Shards))
	for c, o := range p.freeOwner {
		if int32(c) == o {
			tiles = append(tiles, c)
		}
	}
	return tiles
}

// TileShard returns the shard currently routing the given tile. Safe for
// concurrent use.
func (p *Partition) TileShard(tile int) int {
	return int(p.tileShard[tile].Load())
}

// MigrateTile reroutes a task tile — and every free tile it serves — to the
// given shard. Each entry swaps with one atomic store, so concurrent Locate
// calls always read a valid shard; callers that need the task handoff to be
// atomic with the routing swap (the dispatch layer) serialize MigrateTile
// with both shards' ingestion locks. The tile must be a task tile (an owner
// tile); task-free tiles move only with their owner.
func (p *Partition) MigrateTile(tile, shard int) error {
	if !p.Rebalanceable() {
		return ErrNotRebalanceable
	}
	if tile < 0 || tile >= len(p.tileShard) || p.freeOwner[tile] != int32(tile) {
		return fmt.Errorf("model: tile %d is not a migratable task tile", tile)
	}
	if shard < 0 || shard >= len(p.Shards) {
		return fmt.Errorf("model: migration target shard %d out of range [0,%d)", shard, len(p.Shards))
	}
	for c, o := range p.freeOwner {
		if o == int32(tile) {
			p.tileShard[c].Store(int32(shard))
		}
	}
	return nil
}
