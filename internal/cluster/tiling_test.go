package cluster

import (
	"math"
	"math/rand/v2"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// clusteredInstance draws n tasks from two opposite corner blobs of a
// 1000×1000 field, so node-granularity tilings have task-free tiles for the
// BFS fold to fill.
func clusteredInstance(seed uint64, n int) *model.Instance {
	rng := rand.New(rand.NewPCG(seed, 0))
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{X: 300 * rng.Float64(), Y: 250 * rng.Float64()}
		if i%3 == 0 {
			locs[i] = geo.Point{X: 700 + 300*rng.Float64(), Y: 600 + 400*rng.Float64()}
		}
	}
	return testInstance(locs...)
}

// TestFingerprintPinned pins Fingerprint() to literals recorded at the
// commit before Partition and Topology moved onto geo.TileGrid: the
// refactor moved no routing bit, and topology files written before it still
// cross-check against nodes built after it.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{1, "67f879aac4e13e7c"},
		{3, "68dcf54ef0f96737"},
		{9, "059dcc80c439a0f8"},
		{12, "40c1c2e50862d7ba"},
	} {
		topo, err := Build(clusteredInstance(42, 200), tc.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.Fingerprint(); got != tc.want {
			t.Errorf("nodes=%d: fingerprint %s, recorded %s", tc.nodes, got, tc.want)
		}
	}
}

// requireSameRouting fails unless an n-node Topology and a striped n-shard
// Partition over in's tasks are the same routing table: every location —
// inside the task rect, on a tile corner or the rect's border, outside it or
// absurdly far away — has NodeFor == Locate.
func requireSameRouting(t *testing.T, rng *rand.Rand, in *model.Instance, n int) {
	t.Helper()
	part, err := model.PartitionInstance(in, n)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := Build(in, n)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumTiles() != len(topo.TileNode) {
		t.Fatalf("n=%d: partition has %d tiles, topology %d", n, part.NumTiles(), len(topo.TileNode))
	}
	check := func(p geo.Point) {
		t.Helper()
		if a, b := part.Locate(p), topo.NodeFor(p); a != b {
			t.Fatalf("n=%d (%d tasks): %v is shard %d for the partition, node %d for the topology", n, len(in.Tasks), p, a, b)
		}
	}
	for i := 0; i < 400; i++ {
		// Around the field with a wide margin, so both sides of every border
		// are hit.
		check(geo.Point{X: -500 + 2000*rng.Float64(), Y: -500 + 2000*rng.Float64()})
	}
	g := topo.grid()
	for col := 0; col <= g.Cols; col++ {
		for row := 0; row <= g.Rows; row++ {
			check(geo.Point{X: g.Origin.X + float64(col)*g.TileW, Y: g.Origin.Y + float64(row)*g.TileH})
		}
	}
	for _, task := range in.Tasks {
		check(task.Loc)
	}
	for _, v := range []float64{-1e300, 1e300, math.Inf(-1), math.Inf(1), math.NaN()} {
		check(geo.Point{X: v, Y: 500})
		check(geo.Point{X: 500, Y: v})
		check(geo.Point{X: v, Y: v})
	}
}

// TestPartitionAndTopologyAgreeOnTiles: over two dense corner blobs, whose
// node-granularity tilings leave the middle of the field task-free, a striped
// n-shard Partition and an n-node Topology give every location's tile the
// same owner. Both sit on geo.TileGrid.Owners; this keeps it that way.
func TestPartitionAndTopologyAgreeOnTiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 3, 4, 6, 9, 12, 16} {
		requireSameRouting(t, rng, clusteredInstance(uint64(n), 150), n)
	}
}

// TestTopologyMatchesStripedPartition: the same agreement on random sparse
// instances (3–22 tasks, 2…|T| owners, most tiles task-free) — where a second
// rule for task-free tiles shows at once — and on dense uniform ones.
func TestTopologyMatchesStripedPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 60; i++ {
		nTasks := 3 + rng.IntN(20)
		if i >= 50 {
			nTasks = 200 + rng.IntN(200)
		}
		locs := make([]geo.Point, nTasks)
		for j := range locs {
			locs[j] = geo.Point{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()}
		}
		requireSameRouting(t, rng, testInstance(locs...), 2+rng.IntN(min(nTasks, 24)-1))
	}
}
