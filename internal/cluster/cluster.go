// Package cluster is the multi-node routing tier over the ltcd gateway: a
// static tile→node table built by the same fold as the dispatch layer's
// striped model.Partition, one level up. The task bounding rect is tiled
// into near-square cells at node granularity, every non-empty tile becomes
// one node's territory, and task-free tiles take their owner tile's node
// (geo.TileGrid.Owners, the fold every layout shares — NodeFor agrees with a
// node-granularity Partition.Locate at every location), so routing any
// location — a worker check-in or a task posted online — is a single table
// lookup on every node and on every client.
//
// The topology is immutable once written: nodes load it at boot, validate
// it against the instance they generated from their own flags (the
// fingerprint ties the table to the exact tiling), and serve only the tiles
// it assigns them. Check-ins that reach the wrong node are rejected with a
// typed redirect carrying the owner, which clients use to self-heal a stale
// local copy of the table. See CONCURRENCY.md, "Cluster tier".
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// Topology is the static cluster routing table: a cols×rows tile grid over
// the initial task bounding rect, with every tile owned by exactly one
// node. It is self-contained — routing needs no instance — and marshals to
// the JSON topology file shared by every node of a cluster.
type Topology struct {
	// Version guards the file format.
	Version int `json:"version"`
	// Nodes is the cluster size. Node IDs are 0-based and dense; nodes
	// beyond the non-empty tile count own no tiles (they boot, redirect
	// every check-in, and report an empty, trivially-done platform).
	Nodes int `json:"nodes"`
	// Cols and Rows shape the tile grid.
	Cols int `json:"cols"`
	Rows int `json:"rows"`
	// OriginX/OriginY anchor the grid at the task bounding rect's lower
	// left; TileW/TileH are the tile dimensions. Together with Cols/Rows
	// they are the file form of a geo.TileGrid (see grid).
	OriginX float64 `json:"origin_x"`
	OriginY float64 `json:"origin_y"`
	TileW   float64 `json:"tile_w"`
	TileH   float64 `json:"tile_h"`
	// TileNode maps every tile (row-major) to its owning node; task-free
	// tiles carry the node of the task tile that serves their traffic, so
	// no entry is ever negative.
	TileNode []int `json:"tile_node"`
	// TotalTasks is the initial task count — the base of the cluster-global
	// ID space. Tasks posted online get IDs ≥ TotalTasks, interleaved by
	// node (see PostedGlobalID) so concurrent posts on different nodes
	// never collide without coordination.
	TotalTasks int `json:"total_tasks"`
}

// topologyVersion is the current topology file format.
const topologyVersion = 1

// Build derives the cluster topology for the given instance and node
// count: the striped near-square tiling of model.Partition at node
// granularity (cols·rows ≤ n, so every non-empty tile can own a distinct
// node). Non-empty tiles are assigned node IDs in ascending tile order and
// task-free tiles follow their owner tile (geo.TileGrid.Owners), so the
// whole table is a pure function of (tasks, nodes).
func Build(in *model.Instance, nodes int) (*Topology, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: node count must be ≥ 1, got %d", nodes)
	}
	if len(in.Tasks) == 0 {
		return nil, model.ErrNoTasks
	}
	pts := make([]geo.Point, len(in.Tasks))
	for i, t := range in.Tasks {
		pts[i] = t.Loc
	}
	rect, _ := geo.BoundingRect(pts)
	g := geo.NearSquareTileGrid(rect, nodes)

	// Task tiles become nodes in ascending tile order; every other tile takes
	// its owner tile's node.
	owner := g.Owners(pts)
	t := &Topology{
		Version: topologyVersion, Nodes: nodes, TotalTasks: len(in.Tasks),
		Cols: g.Cols, Rows: g.Rows, OriginX: g.Origin.X, OriginY: g.Origin.Y, TileW: g.TileW, TileH: g.TileH,
		TileNode: make([]int, len(owner)),
	}
	next := 0
	for c, o := range owner {
		if int(o) == c {
			t.TileNode[c] = next
			next++
		}
	}
	for c, o := range owner {
		t.TileNode[c] = t.TileNode[o]
	}
	return t, nil
}

// grid is the topology's tiling as the geo.TileGrid it was built from.
func (t *Topology) grid() geo.TileGrid {
	return geo.TileGrid{Origin: geo.Point{X: t.OriginX, Y: t.OriginY}, TileW: t.TileW, TileH: t.TileH, Cols: t.Cols, Rows: t.Rows}
}

// TileIndex returns the tile containing loc, clamped into the grid — the
// same geo.TileGrid clamp as model.Partition, so out-of-rect check-ins route
// to border tiles on the cluster exactly as they do on a single node's
// shards.
func (t *Topology) TileIndex(loc geo.Point) int { return t.grid().Index(loc) }

// NodeFor routes a location to its owning node.
func (t *Topology) NodeFor(loc geo.Point) int { return t.TileNode[t.TileIndex(loc)] }

// Validate checks the structural invariants a loaded topology file must
// satisfy before any routing decision is taken from it.
func (t *Topology) Validate() error {
	switch {
	case t.Version != topologyVersion:
		return fmt.Errorf("cluster: topology version %d (want %d)", t.Version, topologyVersion)
	case t.Nodes < 1:
		return fmt.Errorf("cluster: topology has %d nodes", t.Nodes)
	case t.Cols < 1 || t.Rows < 1:
		return fmt.Errorf("cluster: bad tile grid %dx%d", t.Cols, t.Rows)
	case len(t.TileNode) != t.Cols*t.Rows:
		return fmt.Errorf("cluster: tile table has %d entries for a %dx%d grid", len(t.TileNode), t.Cols, t.Rows)
	case t.TileW <= 0 || t.TileH <= 0:
		return fmt.Errorf("cluster: non-positive tile dimensions %g×%g", t.TileW, t.TileH)
	case t.TotalTasks < 1:
		return fmt.Errorf("cluster: topology covers %d tasks", t.TotalTasks)
	}
	for c, n := range t.TileNode {
		if n < 0 || n >= t.Nodes {
			return fmt.Errorf("cluster: tile %d owned by out-of-range node %d", c, n)
		}
	}
	return nil
}

// Fingerprint hashes the routing-relevant fields (grid geometry in exact
// hex-float form, the full tile table, node and task counts). Two
// topologies route identically iff their fingerprints match; nodes and
// clients exchange it to detect mismatched -scale/-seed flags before any
// misrouted traffic flows.
func (t *Topology) Fingerprint() string {
	h := fnv.New64a()
	w := func(s string) { _, _ = h.Write([]byte(s)) }
	w(strconv.Itoa(t.Nodes))
	w("|" + strconv.Itoa(t.Cols) + "x" + strconv.Itoa(t.Rows))
	w("|" + strconv.FormatFloat(t.OriginX, 'x', -1, 64))
	w("|" + strconv.FormatFloat(t.OriginY, 'x', -1, 64))
	w("|" + strconv.FormatFloat(t.TileW, 'x', -1, 64))
	w("|" + strconv.FormatFloat(t.TileH, 'x', -1, 64))
	w("|" + strconv.Itoa(t.TotalTasks))
	for _, n := range t.TileNode {
		w("," + strconv.Itoa(n))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Save writes the topology file (indented JSON, one cluster-wide artifact).
func (t *Topology) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a topology file.
func Load(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("cluster: bad topology file %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return &t, nil
}

// Split is the per-node view of an instance under a topology.
type Split struct {
	// Subs[n] is node n's sub-instance (tasks renumbered to local IDs,
	// ascending by global ID; accuracy model wrapped so ID-sensitive models
	// see source tasks). nil for nodes owning no tasks.
	Subs []*model.SubInstance
	// OwnerOf maps every initial global TaskID to its owning node.
	OwnerOf []int32
}

// SplitInstance partitions the instance's tasks across the topology's
// nodes: every task belongs to the node owning its tile. The result is a
// pure function of (instance, topology); a single-node topology yields one
// sub-instance listing the source tasks in their original order, so any
// algorithm run on it behaves exactly as on the source — the property the
// golden replay through the cluster client pins byte for byte.
func SplitInstance(in *model.Instance, t *Topology) (*Split, error) {
	if len(in.Tasks) != t.TotalTasks {
		return nil, fmt.Errorf("cluster: instance has %d tasks, topology covers %d — mismatched workload flags?",
			len(in.Tasks), t.TotalTasks)
	}
	ids := make([][]model.TaskID, t.Nodes)
	owner := make([]int32, len(in.Tasks))
	for _, task := range in.Tasks {
		n := t.NodeFor(task.Loc)
		ids[n] = append(ids[n], task.ID) // in.Tasks is ascending by ID
		owner[task.ID] = int32(n)
	}
	s := &Split{Subs: make([]*model.SubInstance, t.Nodes), OwnerOf: owner}
	for n, nodeIDs := range ids {
		if len(nodeIDs) > 0 {
			s.Subs[n] = model.NewSubInstance(in, nodeIDs)
		}
	}
	return s, nil
}

// ErrNotPosted is returned by the posted-ID arithmetic for IDs below the
// initial task range.
var ErrNotPosted = errors.New("cluster: task ID is in the initial range, not a posted ID")

// PostedGlobalID returns the cluster-global ID of node's k-th online post
// (k is 0-based). Posted IDs start at TotalTasks and interleave by node —
// id = TotalTasks + node + k·Nodes — so every node allocates from a
// disjoint arithmetic progression with no cross-node coordination, and the
// owner of any posted ID is recoverable from the ID alone.
func (t *Topology) PostedGlobalID(node, k int) int {
	return t.TotalTasks + node + k*t.Nodes
}

// PostedOwner inverts PostedGlobalID: the node that allocated the given
// posted cluster-global ID, and its 0-based post ordinal on that node.
func (t *Topology) PostedOwner(global int) (node, k int, err error) {
	if global < t.TotalTasks {
		return 0, 0, ErrNotPosted
	}
	off := global - t.TotalTasks
	return off % t.Nodes, off / t.Nodes, nil
}
