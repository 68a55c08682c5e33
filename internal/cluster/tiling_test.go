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

// TestPartitionAndTopologyAgreeOnTiles: a striped n-shard Partition and an
// n-node Topology over the same tasks put every location — inside the task
// rect, outside it, and absurdly far away — in the same tile index. Both sit
// on geo.TileGrid; this keeps it that way.
func TestPartitionAndTopologyAgreeOnTiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 3, 4, 6, 9, 12, 16} {
		in := clusteredInstance(uint64(n), 150)
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
			if a, b := part.TileOf(p), topo.TileIndex(p); a != b {
				t.Fatalf("n=%d: %v is tile %d for the partition, %d for the topology", n, p, a, b)
			}
		}
		for i := 0; i < 2000; i++ {
			// Mostly around the field with a wide margin, so both sides of
			// every border are hit.
			check(geo.Point{X: -500 + 2000*rng.Float64(), Y: -500 + 2000*rng.Float64()})
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
}
