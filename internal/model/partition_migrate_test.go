package model

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"ltc/internal/geo"
)

// TestPartitionMigrateTileReroutes: migrating a task tile reroutes the tile
// itself and every free tile it serves, and nothing else; migrating it back
// restores the original table.
func TestPartitionMigrateTileReroutes(t *testing.T) {
	in := partitionInstance(300, 7)
	p, err := PartitionInstanceOpts(in, 8, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Rebalanceable() {
		t.Fatal("balanced multi-shard partition must be rebalanceable")
	}
	owners := p.OwnerTiles()
	if len(owners) == 0 {
		t.Fatal("no owner tiles")
	}
	tile := owners[0]
	if p.OwnerTile(in.Tasks[0].Loc) < 0 {
		t.Fatal("OwnerTile must resolve on a balanced layout")
	}

	before := make([]int, p.NumTiles())
	for c := range before {
		before[c] = p.TileShard(c)
	}
	from := p.TileShard(tile)
	to := (from + 1) % p.NumShards()

	if err := p.MigrateTile(tile, to); err != nil {
		t.Fatal(err)
	}
	for c := range before {
		got := p.TileShard(c)
		owned := p.OwnerTile(geo.Point{
			X: p.grid.Origin.X + (float64(c%p.grid.Cols)+0.5)*p.grid.TileW,
			Y: p.grid.Origin.Y + (float64(c/p.grid.Cols)+0.5)*p.grid.TileH,
		}) == tile
		switch {
		case owned && got != to:
			t.Fatalf("tile %d owned by %d still routes to %d, want %d", c, tile, got, to)
		case !owned && got != before[c]:
			t.Fatalf("unowned tile %d moved from %d to %d", c, before[c], got)
		}
	}
	// Locate agrees with the swapped table for a point inside the tile.
	center := geo.Point{
		X: p.grid.Origin.X + (float64(tile%p.grid.Cols)+0.5)*p.grid.TileW,
		Y: p.grid.Origin.Y + (float64(tile/p.grid.Cols)+0.5)*p.grid.TileH,
	}
	if got := p.Locate(center); got != to {
		t.Fatalf("Locate inside migrated tile: %d, want %d", got, to)
	}
	if s, o := p.LocateOwner(center); s != to || o != tile {
		t.Fatalf("LocateOwner inside migrated tile: (%d,%d), want (%d,%d)", s, o, to, tile)
	}

	// Round trip restores the original routing exactly.
	if err := p.MigrateTile(tile, from); err != nil {
		t.Fatal(err)
	}
	for c := range before {
		if p.TileShard(c) != before[c] {
			t.Fatalf("tile %d not restored: %d, want %d", c, p.TileShard(c), before[c])
		}
	}
}

// TestPartitionMigrateTileErrors covers the rejection paths: striped
// layouts (whole, not per tile), free tiles, and out-of-range tiles/shards.
func TestPartitionMigrateTileErrors(t *testing.T) {
	in := partitionInstance(200, 11)
	striped, err := PartitionInstanceOpts(in, 4, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if striped.Rebalanceable() {
		t.Fatal("striped partition claims rebalanceable")
	}
	// A striped layout has the same owner table as any other — one task tile
	// per shard — but nothing to rebalance: even a well-formed request (an
	// owner tile, a valid shard) is refused for the layout alone.
	tiles := striped.OwnerTiles()
	if len(tiles) != striped.NumShards() {
		t.Fatalf("striped OwnerTiles: %d entries for %d shards", len(tiles), striped.NumShards())
	}
	for s, c := range tiles {
		if striped.TileShard(c) != s {
			t.Fatalf("striped owner tile %d routes to shard %d, want %d (ascending tile order)", c, striped.TileShard(c), s)
		}
	}
	if err := striped.MigrateTile(tiles[0], 1); !errors.Is(err, ErrNotRebalanceable) {
		t.Fatalf("striped migrate: %v, want ErrNotRebalanceable", err)
	}
	if striped.TileShard(tiles[0]) != 0 {
		t.Fatal("refused migration moved the tile")
	}
	loc := in.Tasks[0].Loc
	if s, o := striped.LocateOwner(loc); s != striped.Locate(loc) || o != striped.OwnerTile(loc) || !slices.Contains(tiles, o) {
		t.Fatalf("striped LocateOwner: (%d,%d)", s, o)
	}

	p, err := PartitionInstanceOpts(in, 4, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	// A free tile (not an owner) must be rejected.
	free := -1
	for c := 0; c < p.NumTiles(); c++ {
		isOwner := false
		for _, o := range p.OwnerTiles() {
			if o == c {
				isOwner = true
				break
			}
		}
		if !isOwner {
			free = c
			break
		}
	}
	if free >= 0 {
		if err := p.MigrateTile(free, 0); err == nil {
			t.Fatal("free-tile migrate accepted")
		}
	}
	if err := p.MigrateTile(-1, 0); err == nil {
		t.Fatal("negative tile accepted")
	}
	if err := p.MigrateTile(p.NumTiles(), 0); err == nil {
		t.Fatal("out-of-range tile accepted")
	}
	if err := p.MigrateTile(p.OwnerTiles()[0], -1); err == nil {
		t.Fatal("negative shard accepted")
	}
	if err := p.MigrateTile(p.OwnerTiles()[0], p.NumShards()); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestPartitionLocateDuringMigration hammers Locate/LocateOwner from readers
// while a writer migrates a tile back and forth: every read must return one
// of the two legal shards (race detector covers the memory model).
func TestPartitionLocateDuringMigration(t *testing.T) {
	in := partitionInstance(300, 13)
	p, err := PartitionInstanceOpts(in, 8, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	tile := p.OwnerTiles()[0]
	from := p.TileShard(tile)
	to := (from + 1) % p.NumShards()
	center := geo.Point{
		X: p.grid.Origin.X + (float64(tile%p.grid.Cols)+0.5)*p.grid.TileW,
		Y: p.grid.Origin.Y + (float64(tile/p.grid.Cols)+0.5)*p.grid.TileH,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := p.Locate(center); s != from && s != to {
					t.Errorf("Locate mid-migration: %d", s)
					return
				}
				if s, o := p.LocateOwner(center); o != tile || (s != from && s != to) {
					t.Errorf("LocateOwner mid-migration: (%d,%d)", s, o)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		target := to
		if i%2 == 1 {
			target = from
		}
		if err := p.MigrateTile(tile, target); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := p.MigrateTile(tile, from); err != nil {
		t.Fatal(err)
	}
}
