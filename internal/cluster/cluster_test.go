package cluster

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// testInstance builds a small instance with tasks at the given locations.
func testInstance(locs ...geo.Point) *model.Instance {
	in := &model.Instance{
		Epsilon: 0.1,
		K:       4,
		Model:   model.SigmoidDistance{},
	}
	for i, l := range locs {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: l})
	}
	return in
}

// spread returns a 2×2 four-corner task layout that occupies all four tiles
// of a 2-column, 2-row grid.
func spread() *model.Instance {
	return testInstance(
		geo.Point{X: 10, Y: 10}, geo.Point{X: 90, Y: 10},
		geo.Point{X: 10, Y: 90}, geo.Point{X: 90, Y: 90},
		geo.Point{X: 15, Y: 12}, geo.Point{X: 88, Y: 85},
	)
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(testInstance(), 1); !errors.Is(err, model.ErrNoTasks) {
		t.Fatalf("empty instance: got %v", err)
	}
	if _, err := Build(spread(), 0); err == nil {
		t.Fatal("nodes=0 must fail")
	}
}

func TestBuildRoutesEveryTaskToItsOwner(t *testing.T) {
	in := spread()
	topo, err := Build(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	split, err := SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Every task routes to the node that owns it, and the split covers the
	// task set exactly once with ascending global IDs per node.
	covered := make([]bool, len(in.Tasks))
	for n, sub := range split.Subs {
		if sub == nil {
			continue
		}
		prev := model.TaskID(-1)
		for local, gid := range sub.Global {
			if gid <= prev {
				t.Fatalf("node %d: global IDs not ascending: %v", n, sub.Global)
			}
			prev = gid
			if covered[gid] {
				t.Fatalf("task %d owned by two nodes", gid)
			}
			covered[gid] = true
			if got := topo.NodeFor(in.Tasks[gid].Loc); got != n {
				t.Fatalf("task %d lives on node %d but routes to %d", gid, n, got)
			}
			if split.OwnerOf[gid] != int32(n) {
				t.Fatalf("OwnerOf[%d] = %d, want %d", gid, split.OwnerOf[gid], n)
			}
			if sub.In.Tasks[local].Loc != in.Tasks[gid].Loc {
				t.Fatalf("task %d location diverged in the sub-instance", gid)
			}
		}
	}
	for gid, ok := range covered {
		if !ok {
			t.Fatalf("task %d not owned by any node", gid)
		}
	}
}

func TestBuildClampsOutOfRectLocations(t *testing.T) {
	in := spread()
	topo, err := Build(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []geo.Point{{X: -1e6, Y: -1e6}, {X: 1e6, Y: 1e6}, {X: 50, Y: -40}} {
		n := topo.NodeFor(loc)
		if n < 0 || n >= topo.Nodes {
			t.Fatalf("out-of-rect location %v routed to node %d", loc, n)
		}
	}
}

func TestSingleNodeTopologyIsIdentity(t *testing.T) {
	in := spread()
	topo, err := Build(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Cols*topo.Rows != 1 || topo.TileNode[0] != 0 {
		t.Fatalf("single-node grid: %dx%d, owner %v", topo.Cols, topo.Rows, topo.TileNode)
	}
	split, err := SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	sub := split.Subs[0]
	if sub == nil || len(sub.In.Tasks) != len(in.Tasks) {
		t.Fatal("single node must own the whole task set")
	}
	for i := range in.Tasks {
		if sub.Global[i] != model.TaskID(i) || sub.In.Tasks[i].Loc != in.Tasks[i].Loc {
			t.Fatalf("task %d renumbered under a single-node topology", i)
		}
	}
}

func TestZeroTileNode(t *testing.T) {
	// All tasks share one location: one task tile; with 3 nodes the grid is
	// 1×3 and nodes 1 and 2 own no tiles (and therefore no tasks), while
	// every tile still routes somewhere (BFS fold).
	in := testInstance(geo.Point{X: 5, Y: 5}, geo.Point{X: 5, Y: 5}, geo.Point{X: 5, Y: 5})
	topo, err := Build(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for c, n := range topo.TileNode {
		if n != 0 {
			t.Fatalf("tile %d owned by node %d, want 0 (the only task tile)", c, n)
		}
	}
	split, err := SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	if split.Subs[0] == nil || split.Subs[1] != nil || split.Subs[2] != nil {
		t.Fatalf("want all tasks on node 0 and nodes 1,2 empty; got %v", split.Subs)
	}
}

func TestSplitInstanceMismatch(t *testing.T) {
	in := spread()
	topo, err := Build(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	other := testInstance(geo.Point{X: 1, Y: 1})
	if _, err := SplitInstance(other, topo); err == nil {
		t.Fatal("mismatched task count must fail")
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	in := spread()
	a, _ := Build(in, 3)
	b, _ := Build(in, 3)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical builds must share a fingerprint")
	}
	c, _ := Build(in, 2)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different node counts must change the fingerprint")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	in := spread()
	topo, err := Build(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := topo.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != topo.Fingerprint() {
		t.Fatal("round-tripped topology fingerprint diverged")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("absent file: %v, want fs.ErrNotExist", err)
	}
}

// TestSaveRejectsUnencodableTopology: a table JSON cannot carry (a NaN tile
// dimension) fails with the encoder's error and writes nothing.
func TestSaveRejectsUnencodableTopology(t *testing.T) {
	topo, err := Build(spread(), 3)
	if err != nil {
		t.Fatal(err)
	}
	topo.TileW = math.NaN()
	path := filepath.Join(t.TempDir(), "topo.json")
	var unsupported *json.UnsupportedValueError
	if err := topo.Save(path); !errors.As(err, &unsupported) {
		t.Fatalf("Save with NaN tile width: %v, want a json.UnsupportedValueError", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed Save left a file behind (stat: %v)", err)
	}
}

func TestLoadRejectsCorruptTopologies(t *testing.T) {
	in := spread()
	good, _ := Build(in, 2)
	cases := map[string]func(*Topology){
		"version":   func(t *Topology) { t.Version = 99 },
		"nodes":     func(t *Topology) { t.Nodes = 0 },
		"grid":      func(t *Topology) { t.Cols = 0 },
		"table-len": func(t *Topology) { t.TileNode = t.TileNode[:1] },
		"tile-dims": func(t *Topology) { t.TileW = 0 },
		"tasks":     func(t *Topology) { t.TotalTasks = 0 },
		"owner-oob": func(t *Topology) { t.TileNode[0] = 7 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			bad := *good
			bad.TileNode = append([]int(nil), good.TileNode...)
			corrupt(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("corrupt topology validated")
			}
		})
	}
	// Unparseable JSON.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("bad JSON must fail")
	}
	// Well-formed JSON that fails validation names the file.
	bad := *good
	bad.Nodes = 0
	data, err := json.Marshal(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("invalid topology file: %v, want a validation error naming %s", err, path)
	}
}

func TestPostedIDArithmetic(t *testing.T) {
	in := spread()
	topo, err := Build(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for node := 0; node < topo.Nodes; node++ {
		for k := 0; k < 4; k++ {
			g := topo.PostedGlobalID(node, k)
			if g < topo.TotalTasks {
				t.Fatalf("posted ID %d inside the initial range", g)
			}
			if seen[g] {
				t.Fatalf("posted ID %d allocated twice", g)
			}
			seen[g] = true
			gotNode, gotK, err := topo.PostedOwner(g)
			if err != nil || gotNode != node || gotK != k {
				t.Fatalf("PostedOwner(%d) = (%d, %d, %v), want (%d, %d)", g, gotNode, gotK, err, node, k)
			}
		}
	}
	if _, _, err := topo.PostedOwner(0); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("initial-range ID: got %v", err)
	}
}
