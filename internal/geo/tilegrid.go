package geo

import "math"

// TileGrid is a Cols×Rows grid of equal tiles anchored at Origin, numbered
// row-major — the one tiling behind both routing tables of the stack,
// model.Partition's tile→shard layout and cluster.Topology's tile→node
// layout (both built from Owners), and the place a later geometry
// (wrap-around, lat/lon) would go.
type TileGrid struct {
	Origin       Point
	TileW, TileH float64
	Cols, Rows   int
}

// NewTileGrid lays a cols×rows grid over rect. A zero extent (all points
// share one column, or row) is widened to unit tiles.
func NewTileGrid(rect Rect, cols, rows int) TileGrid {
	g := TileGrid{Origin: rect.Min, Cols: cols, Rows: rows,
		TileW: rect.Width() / float64(cols), TileH: rect.Height() / float64(rows)}
	if g.TileW <= 0 {
		g.TileW = 1
	}
	if g.TileH <= 0 {
		g.TileH = 1
	}
	return g
}

// NearSquareTileGrid tiles rect into cols = ⌊√n⌋ by rows = n/cols tiles
// (n ≥ 1): cols·rows ≤ n, so giving every non-empty tile its own owner never
// takes more than n owners.
func NearSquareTileGrid(rect Rect, n int) TileGrid {
	cols := int(math.Sqrt(float64(n)))
	return NewTileGrid(rect, cols, n/cols)
}

// FineTileGrid tiles rect into ≈ tiles near-square cells following the
// rect's aspect ratio, degrading gracefully for zero-extent rects.
func FineTileGrid(rect Rect, tiles int) TileGrid {
	w, h := rect.Width(), rect.Height()
	switch {
	case w <= 0 && h <= 0:
		return NewTileGrid(rect, 1, 1)
	case w <= 0:
		return NewTileGrid(rect, 1, tiles)
	case h <= 0:
		return NewTileGrid(rect, tiles, 1)
	}
	side := math.Sqrt(w * h / float64(tiles))
	cols := max(int(math.Ceil(w/side)), 1)
	rows := max(int(math.Ceil(h/side)), 1)
	// Extreme aspect ratios blow the ceil up (a near-line task rect can
	// yield millions of columns for a 1-row grid); halve the long axis
	// until the tile count is back within a small factor of the budget.
	// Sane rects never enter the loop, so the common layout is untouched.
	for cols*rows > 4*tiles {
		if cols >= rows {
			cols = (cols + 1) / 2
		} else {
			rows = (rows + 1) / 2
		}
	}
	return NewTileGrid(rect, cols, rows)
}

// SquareTileGrid covers rect with square tiles of the given side, anchored
// at rect.Min, with as many columns and rows as it takes to reach rect.Max —
// the layout of the radius-query indexes (GridIndex, model.CandidateIndex),
// whose tile side is the query radius rather than a share of the rect.
func SquareTileGrid(rect Rect, side float64) TileGrid {
	return TileGrid{Origin: rect.Min, TileW: side, TileH: side,
		Cols: int(math.Floor(rect.Width()/side)) + 1, Rows: int(math.Floor(rect.Height()/side)) + 1}
}

// NumTiles returns the size of the grid.
func (g TileGrid) NumTiles() int { return g.Cols * g.Rows }

// Index returns the tile containing p, clamped into the grid: locations
// outside the tiled rect route to the border tile on their side.
func (g TileGrid) Index(p Point) int {
	return clampTile((p.Y-g.Origin.Y)/g.TileH, g.Rows)*g.Cols + clampTile((p.X-g.Origin.X)/g.TileW, g.Cols)
}

// Window returns the inclusive column and row ranges of the tiles the disc of
// the given radius around q can overlap. Every bound is clamped into the grid
// like Index, not merely toward it: a point outside the tiled rect is filed
// under its border tile, so a query from beyond the border must still visit
// that tile. Callers filter by exact distance.
func (g TileGrid) Window(q Point, radius float64) (minCX, maxCX, minCY, maxCY int) {
	return clampTile((q.X-radius-g.Origin.X)/g.TileW, g.Cols), clampTile((q.X+radius-g.Origin.X)/g.TileW, g.Cols),
		clampTile((q.Y-radius-g.Origin.Y)/g.TileH, g.Rows), clampTile((q.Y+radius-g.Origin.Y)/g.TileH, g.Rows)
}

// clampTile floors a tile coordinate and clamps it to [0, n) in the float
// domain: converting an out-of-range float (a far-off but valid coordinate
// like 1e300, or ±Inf) to int is implementation-defined — amd64 yields
// MinInt64, arm64 saturates — so clamping after the conversion would let
// two machines disagree on which border tile owns the point. NaN lands on 0.
// The in-range test comes first because it is the one branch real traffic
// predicts; testing f against a tile boundary instead would be a coin flip.
func clampTile(f float64, n int) int {
	if f >= 0 && f < float64(n) {
		return int(f) // non-negative: truncation is the floor
	}
	if f >= float64(n) {
		return n - 1
	}
	return 0
}

// Owners returns the tile → owner tile table for the given points: a tile
// holding a point owns itself and every other tile takes the owner FoldFree
// reaches first, so with at least one point every tile has exactly one owner
// (no points: all -1). It is the one fold behind every routing table —
// model.Partition's striped and balanced layouts and cluster.Topology — so
// the same location routes to the same task tile at every level.
func (g TileGrid) Owners(pts []Point) []int32 {
	owner := make([]int32, g.NumTiles())
	for c := range owner {
		owner[c] = -1
	}
	for _, p := range pts {
		c := g.Index(p)
		owner[c] = int32(c)
	}
	g.FoldFree(owner)
	return owner
}

// FoldFree fills every free (negative) entry of the per-tile table owner
// with the value of the nearest non-free tile: a multi-source BFS over the
// 4-neighbourhood in deterministic queue order (sources in ascending tile
// order, neighbours west, east, south, north), so the fold is a pure
// function of the input. BFS hop distance stands in for Euclidean distance
// — tiles are near-square.
func (g TileGrid) FoldFree(owner []int32) {
	queue := make([]int32, 0, len(owner))
	for c, o := range owner {
		if o >= 0 {
			queue = append(queue, int32(c))
		}
	}
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		cx, cy := c%g.Cols, c/g.Cols
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nx, ny := cx+d[0], cy+d[1]
			if nx < 0 || nx >= g.Cols || ny < 0 || ny >= g.Rows {
				continue
			}
			if nc := ny*g.Cols + nx; owner[nc] < 0 {
				owner[nc] = owner[c]
				queue = append(queue, int32(nc))
			}
		}
	}
}
