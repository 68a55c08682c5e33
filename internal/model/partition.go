package model

import (
	"errors"
	"fmt"
	"math"
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
// recovery when its engine rejects a post (solver without lifecycle
// support). Same serialization requirements as AppendTask.
func (s *SubInstance) TruncateLast() {
	n := len(s.In.Tasks) - 1
	s.In.Tasks = s.In.Tasks[:n]
	s.Global = s.Global[:n]
	s.source = s.source[:n]
}

// Partition splits an Instance's task set into spatially coherent shards:
// the task bounding rect is tiled by a geo.TileGrid into ~n tiles, each
// non-empty tile becomes one shard, and Locate routes an arbitrary location
// (a worker check-in or a task posted online) to its shard.
//
// The routing table is built from the initial task set. For striped layouts
// it is immutable after construction; balanced layouts additionally support
// live tile migration (MigrateTile), which swaps tile→shard entries with
// atomic stores — Locate reads the table with atomic loads, so routing stays
// safe for concurrent use while a migration is in flight. Tasks posted after
// construction do not change routing: they are owned by the shard Locate
// picks for their location, which is by construction the same shard every
// worker at that location routes to (so late-posted tasks are always
// reachable).
type Partition struct {
	Shards []*SubInstance
	// Balanced records whether the load-aware tile→shard pack was used
	// (see PartitionOptions.Balanced); with it, every tile — task-free
	// ones included — has a precomputed shard, so Locate never falls back
	// to a nearest-task query.
	Balanced bool

	// grid is the tiling: geometry, the clamped location→tile index, and
	// the fold of task-free tiles onto task tiles (see geo.TileGrid).
	grid geo.TileGrid
	// tileShard maps a tile index to its shard, -1 for task-free tiles.
	// MigrateTile swaps entries while Locate reads them; the slice itself
	// never changes after construction.
	tileShard []atomic.Int32
	// taskShard maps an initial global TaskID to the shard the layout
	// originally assigned it. Migration does not rewrite it — current
	// ownership of migrated tasks lives in the dispatch layer's records;
	// here it only backs the striped nearest-task fallback, which balanced
	// (and so migratable) layouts never take.
	taskShard []int32
	// taskGrid (striped layouts only) answers nearest-task queries for
	// locations whose own tile holds no tasks — the routing fallback.
	// Balanced layouts fold every task-free tile onto a task tile at build
	// time, so every tile has a shard and the fallback is never taken.
	taskGrid *geo.GridIndex
	// freeOwner (balanced layouts only) maps every tile to the task tile
	// whose tasks serve its traffic; task tiles own themselves. It is the
	// unit of migration: a task tile moves together with its free
	// satellites, so routing and task ownership never diverge.
	freeOwner []int32
	// ownedTiles inverts freeOwner: the tiles (owner first) each task tile
	// routes. Built once; MigrateTile walks it to swap a whole ownership
	// group atomically per entry.
	ownedTiles map[int32][]int32
}

// ErrBadShardCount is returned when a non-positive shard count is requested.
var ErrBadShardCount = errors.New("model: shard count must be positive")

// PartitionOptions tunes PartitionInstanceOpts. The zero value reproduces
// PartitionInstance's fixed spatial striping exactly.
type PartitionOptions struct {
	// Balanced switches the tile→shard assignment from fixed striping (one
	// near-square tile per shard) to a load-aware greedy pack: the task
	// bounding rect is tiled much finer than the shard count and tiles are
	// packed onto shards largest-load-first, so a spatial hotspot splits
	// across shards instead of degenerating into one hot shard. Ignored
	// (striping kept) for n = 1, where both modes coincide.
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

// PartitionInstance partitions in's tasks into at most n spatial shards.
// Fewer shards are returned when some tiles hold no tasks (or n exceeds the
// task count — a shard is never empty). n = 1 yields a single shard whose
// sub-instance lists the source tasks in their original order, so any
// algorithm run on it behaves exactly as on the source.
func PartitionInstance(in *Instance, n int) (*Partition, error) {
	return PartitionInstanceOpts(in, n, PartitionOptions{})
}

// PartitionInstanceOpts is PartitionInstance with explicit options; see
// PartitionOptions for the balanced tile→shard mode. Whatever the mode,
// every location keeps routing to exactly one shard (the same shard for
// workers and posted tasks alike), local task order follows ascending
// global TaskID, and n = 1 reproduces the source task order — so the
// dispatch layer's latency and ordering semantics are mode-independent.
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

	p := &Partition{Balanced: opt.Balanced && n > 1}
	pts := make([]geo.Point, len(in.Tasks))
	for i, t := range in.Tasks {
		pts[i] = t.Loc
	}
	rect, _ := geo.BoundingRect(pts)

	if p.Balanced {
		p.buildBalanced(in, n, opt.LoadSample, rect)
		// A degenerate pack can collapse to one shard (every task in one
		// fine tile); the layouts then coincide, as with a requested n=1.
		p.Balanced = len(p.Shards) > 1
	} else {
		p.buildStriped(in, n, rect, pts)
	}
	return p, nil
}

// buildStriped is the fixed spatial striping of PR 1: the rect is tiled
// into ~n near-square tiles and each non-empty tile becomes one shard.
func (p *Partition) buildStriped(in *Instance, n int, rect geo.Rect, pts []geo.Point) {
	// cols·rows ≤ n, so the shard count never exceeds the request (empty
	// tiles can only shrink it further).
	p.grid = geo.NearSquareTileGrid(rect, n)

	// Bucket tasks by tile; iterate in global order so each shard's local
	// task order follows ascending global TaskID.
	tileTasks := p.bucketTasks(in)
	p.tileShard = make([]atomic.Int32, p.grid.NumTiles())
	p.taskShard = make([]int32, len(in.Tasks))
	for c, ids := range tileTasks {
		if len(ids) == 0 {
			p.tileShard[c].Store(-1)
			continue
		}
		p.tileShard[c].Store(p.addShard(in, ids))
	}

	// Fallback router: a check-in landing on a task-free tile (or outside
	// the rect) goes to the shard of the nearest task. Cell size of one tile
	// edge keeps nearest-neighbour ring scans short.
	cell := math.Min(p.grid.TileW, p.grid.TileH)
	p.taskGrid = geo.NewGridIndex(pts, cell)
}

// buildBalanced tiles the rect balancedTileFactor× finer than the shard
// count, estimates each tile's load from the sample (attributing traffic
// of task-free tiles to the task tile that will serve it), packs the task
// tiles onto shards by greedy largest-load-first balance, and precomputes
// a shard for every task-free tile — Locate stays a single table lookup.
func (p *Partition) buildBalanced(in *Instance, n int, sample []geo.Point, rect geo.Rect) {
	p.grid = geo.FineTileGrid(rect, balancedTileFactor*n)

	tileTasks := p.bucketTasks(in)

	// freeOwner maps every task-free tile to the task tile whose tasks
	// will serve its traffic (task tiles own themselves): the grid's
	// multi-source BFS fold, O(tiles) and deterministic, so both the load
	// attribution below and the final routing table agree. Per-tile
	// nearest-task ring scans would dominate the whole partitioning cost at
	// this tiling resolution.
	freeOwner := make([]int32, p.grid.NumTiles())
	for c, ids := range tileTasks {
		if len(ids) > 0 {
			freeOwner[c] = int32(c)
		} else {
			freeOwner[c] = -1
		}
	}
	p.grid.FoldFree(freeOwner)

	// Sampled load profile: count sample points per tile, folding traffic
	// that lands on task-free tiles into the task tile serving it. With no
	// sample, task counts stand in for traffic.
	load := make([]float64, p.grid.NumTiles())
	if len(sample) == 0 {
		for c, ids := range tileTasks {
			load[c] = float64(len(ids))
		}
	} else {
		for _, pt := range sample {
			// Task tiles own themselves in freeOwner, so this folds
			// task-free-tile traffic onto the tile serving it in one step.
			load[freeOwner[p.grid.Index(pt)]]++
		}
		// A task tile no sample point hit still carries its tasks: weight
		// it in so the pack never stacks all quiet tiles on one shard.
		for c, ids := range tileTasks {
			if len(ids) > 0 && load[c] == 0 {
				load[c] = float64(len(ids)) / float64(len(in.Tasks))
			}
		}
	}

	// Greedy balance (LPT): task tiles largest-load-first, each onto the
	// currently lightest shard. Ties break on tile index / bin index, so
	// the pack is deterministic.
	taskTiles := make([]int, 0, len(tileTasks))
	for c, ids := range tileTasks {
		if len(ids) > 0 {
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
	binOf := make(map[int]int, len(taskTiles)) // task tile → bin
	for _, c := range taskTiles {
		best := 0
		for b := 1; b < n; b++ {
			if binLoad[b] < binLoad[best] {
				best = b
			}
		}
		binOf[c] = best
		binLoad[best] += load[c]
	}

	// Renumber bins by their smallest global TaskID so shard order (and
	// with it ShardStats, stream replays, ...) is deterministic and
	// independent of the pack's visit order.
	binMin := make([]TaskID, n)
	for b := range binMin {
		binMin[b] = TaskID(len(in.Tasks))
	}
	for c, ids := range tileTasks {
		if len(ids) == 0 {
			continue
		}
		if b := binOf[c]; ids[0] < binMin[b] {
			binMin[b] = ids[0]
		}
	}
	order := make([]int, n)
	for b := range order {
		order[b] = b
	}
	sort.Slice(order, func(i, j int) bool { return binMin[order[i]] < binMin[order[j]] })
	shardOf := make([]int32, n)
	for rank, b := range order {
		shardOf[b] = int32(rank)
	}

	// Collect each shard's global IDs in ascending order (tileTasks holds
	// ascending IDs per tile; tiles visit in index order, then a sort makes
	// the cross-tile order ascending too).
	shardIDs := make([][]TaskID, n)
	for c, ids := range tileTasks {
		if len(ids) == 0 {
			continue
		}
		s := shardOf[binOf[c]]
		shardIDs[s] = append(shardIDs[s], ids...)
	}
	p.tileShard = make([]atomic.Int32, p.grid.NumTiles())
	p.taskShard = make([]int32, len(in.Tasks))
	for s, ids := range shardIDs {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if got := p.addShard(in, ids); int(got) != s {
			panic("model: balanced shard numbering out of order")
		}
	}
	for c := range p.tileShard {
		p.tileShard[c].Store(shardOf[binOf[int(freeOwner[c])]])
	}

	// Keep the ownership structure: migration moves a task tile together
	// with the free tiles it serves.
	p.freeOwner = freeOwner
	p.ownedTiles = make(map[int32][]int32, len(taskTiles))
	for c, o := range freeOwner {
		if int32(c) == o {
			// Owner first, so a migration's routing swap starts at the tile
			// whose tasks are moving.
			p.ownedTiles[o] = append([]int32{o}, p.ownedTiles[o]...)
		} else {
			p.ownedTiles[o] = append(p.ownedTiles[o], int32(c))
		}
	}
}

// bucketTasks groups the instance's tasks by tile, ascending global ID
// within each tile.
func (p *Partition) bucketTasks(in *Instance) [][]TaskID {
	tileTasks := make([][]TaskID, p.grid.NumTiles())
	for _, t := range in.Tasks {
		c := p.grid.Index(t.Loc)
		tileTasks[c] = append(tileTasks[c], t.ID)
	}
	return tileTasks
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

// addShard builds the SubInstance over the given ascending global IDs,
// records the task→shard mapping, and returns the new shard's index.
func (p *Partition) addShard(in *Instance, ids []TaskID) int32 {
	shard := int32(len(p.Shards))
	sub := NewSubInstance(in, ids)
	for _, gid := range ids {
		p.taskShard[gid] = shard
	}
	p.Shards = append(p.Shards, sub)
	return shard
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
	if _, ok := src.Model.(RadiusBounder); ok {
		return &boundedShardModel{shardModel: m}
	}
	return m
}

// Predict implements AccuracyModel.
func (m *shardModel) Predict(w Worker, t Task) float64 {
	return m.src.Model.Predict(w, m.sub.source[t.ID])
}

// boundedShardModel additionally forwards the eligibility radius, so the
// per-shard CandidateIndex keeps its spatial pruning.
type boundedShardModel struct {
	*shardModel
}

// EligibilityRadius implements RadiusBounder.
func (m *boundedShardModel) EligibilityRadius(minAcc float64) float64 {
	return m.src.Model.(RadiusBounder).EligibilityRadius(minAcc)
}

// NumShards reports the number of (non-empty) shards.
func (p *Partition) NumShards() int { return len(p.Shards) }

// TaskShard returns the shard holding the given initial global task. Tasks
// posted after partitioning are tracked by the dispatch layer, not here.
func (p *Partition) TaskShard(t TaskID) int { return int(p.taskShard[t]) }

// Locate routes a location to a shard: the shard of its enclosing tile, or
// — when that tile holds no tasks — the shard of the nearest initial task.
// Safe for concurrent use, including while MigrateTile swaps entries.
func (p *Partition) Locate(loc geo.Point) int {
	shard, _ := p.LocateOwner(loc)
	return shard
}

// ErrNotRebalanceable is returned by MigrateTile on layouts without the
// ownership structure live migration needs (striped layouts, or balanced
// packs that collapsed to one shard).
var ErrNotRebalanceable = errors.New("model: partition layout does not support tile migration")

// Rebalanceable reports whether the partition supports MigrateTile: only
// balanced layouts carry the tile ownership structure, and a single-shard
// layout has nowhere to migrate to.
func (p *Partition) Rebalanceable() bool {
	return p.Balanced && p.freeOwner != nil && len(p.Shards) > 1
}

// NumTiles returns the size of the tile grid (task-free tiles included).
func (p *Partition) NumTiles() int { return p.grid.NumTiles() }

// TileOf returns the tile index containing loc (clamped into the grid).
func (p *Partition) TileOf(loc geo.Point) int { return p.grid.Index(loc) }

// OwnerTile returns the task tile serving loc's traffic on a rebalanceable
// layout (the migration unit loc belongs to), or -1 when the layout has no
// ownership structure.
func (p *Partition) OwnerTile(loc geo.Point) int {
	if p.freeOwner == nil {
		return -1
	}
	return int(p.freeOwner[p.grid.Index(loc)])
}

// LocateOwner is Locate plus the owner tile of the location (-1 on layouts
// without the ownership structure), sharing one tile computation — the
// variant the load forecaster rides on.
func (p *Partition) LocateOwner(loc geo.Point) (shard, ownerTile int) {
	c := p.grid.Index(loc)
	ownerTile = -1
	if p.freeOwner != nil {
		ownerTile = int(p.freeOwner[c])
	}
	if s := p.tileShard[c].Load(); s >= 0 {
		return int(s), ownerTile
	}
	id, _, ok := p.taskGrid.Nearest(loc)
	if !ok {
		return 0, ownerTile // unreachable: partitions always hold ≥ 1 task
	}
	return int(p.taskShard[id]), ownerTile
}

// OwnerTiles returns the task tiles of a rebalanceable layout — the units
// migration can move — in ascending tile order. The result is a fresh slice.
func (p *Partition) OwnerTiles() []int {
	tiles := make([]int, 0, len(p.ownedTiles))
	for c, o := range p.freeOwner {
		if int32(c) == o {
			tiles = append(tiles, c)
		}
	}
	return tiles
}

// TileShard returns the shard currently routing the given tile (-1 for
// task-free tiles of a striped layout). Safe for concurrent use.
func (p *Partition) TileShard(tile int) int {
	return int(p.tileShard[tile].Load())
}

// MigrateTile reroutes a task tile — and every free tile it serves — to the
// given shard. Each entry swaps with one atomic store, so concurrent Locate
// calls always read a valid shard; callers that need the task handoff to be
// atomic with the routing swap (the dispatch layer) serialize MigrateTile
// with both shards' ingestion locks. The tile must be a task tile (an owner
// in the ownership structure); task-free tiles move only with their owner.
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
	for _, c := range p.ownedTiles[int32(tile)] {
		p.tileShard[c].Store(int32(shard))
	}
	return nil
}
