package geo

import (
	"math"
	"slices"
	"testing"
)

func TestTileGridIndexEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	// 4×3 grid of 25×20 tiles over [100,200]×[50,110].
	g := NewTileGrid(Rect{Min: Point{100, 50}, Max: Point{200, 110}}, 4, 3)
	if g.TileW != 25 || g.TileH != 20 || g.NumTiles() != 12 {
		t.Fatalf("grid dims: %+v", g)
	}
	const lastCol, lastRow = 3, 2
	tile := func(col, row int) int { return row*g.Cols + col }
	for _, tc := range []struct {
		name string
		p    Point
		want int
	}{
		{"origin", Point{100, 50}, tile(0, 0)},
		{"interior", Point{160, 75}, tile(2, 1)},
		{"tile boundary belongs to the upper tile", Point{125, 70}, tile(1, 1)},
		{"just below a tile boundary", Point{math.Nextafter(125, 0), math.Nextafter(70, 0)}, tile(0, 0)},
		{"exact max edge", Point{200, 110}, tile(lastCol, lastRow)},
		{"just west", Point{math.Nextafter(100, 0), 75}, tile(0, 1)},
		{"just east", Point{math.Nextafter(200, 1e9), 75}, tile(lastCol, 1)},
		{"just south", Point{160, math.Nextafter(50, 0)}, tile(2, 0)},
		{"just north", Point{160, math.Nextafter(110, 1e9)}, tile(2, lastRow)},
		{"far west", Point{-1e300, 75}, tile(0, 1)},
		{"far east", Point{1e300, 75}, tile(lastCol, 1)},
		{"far south", Point{160, -1e300}, tile(2, 0)},
		{"far north", Point{160, 1e300}, tile(2, lastRow)},
		{"far north-east", Point{1e300, 1e300}, tile(lastCol, lastRow)},
		{"-Inf x", Point{-inf, 75}, tile(0, 1)},
		{"+Inf x", Point{inf, 75}, tile(lastCol, 1)},
		{"-Inf y", Point{160, -inf}, tile(2, 0)},
		{"+Inf y", Point{160, inf}, tile(2, lastRow)},
		{"NaN x keeps the row", Point{nan, 75}, tile(0, 1)},
		{"NaN y keeps the column", Point{160, nan}, tile(2, 0)},
		{"NaN point is tile 0", Point{nan, nan}, 0},
	} {
		if got := g.Index(tc.p); got != tc.want {
			t.Errorf("%s: Index(%v) = %d, want %d", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestTileGridDegenerateRects(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name         string
		g            TileGrid
		cols, rows   int
		tileW, tileH float64
	}{
		{"zero-width rect", NewTileGrid(Rect{Min: Point{5, 0}, Max: Point{5, 30}}, 2, 3), 2, 3, 1, 10},
		{"zero-height rect", NewTileGrid(Rect{Min: Point{0, 7}, Max: Point{30, 7}}, 3, 2), 3, 2, 10, 1},
		{"single point", NewTileGrid(Rect{Min: Point{5, 7}, Max: Point{5, 7}}, 2, 2), 2, 2, 1, 1},
		{"1×1 grid", NewTileGrid(Rect{Min: Point{0, 0}, Max: Point{10, 10}}, 1, 1), 1, 1, 10, 10},
		{"near-square n=1", NearSquareTileGrid(Rect{Max: Point{10, 10}}, 1), 1, 1, 10, 10},
		{"near-square n=7", NearSquareTileGrid(Rect{Max: Point{10, 12}}, 7), 2, 3, 5, 4},
		{"near-square n=12", NearSquareTileGrid(Rect{Max: Point{12, 12}}, 12), 3, 4, 4, 3},
		{"fine, single point", FineTileGrid(Rect{Min: Point{5, 7}, Max: Point{5, 7}}, 64), 1, 1, 1, 1},
		{"fine, zero width", FineTileGrid(Rect{Min: Point{5, 0}, Max: Point{5, 64}}, 64), 1, 64, 1, 1},
		{"fine, zero height", FineTileGrid(Rect{Min: Point{0, 7}, Max: Point{64, 7}}, 64), 64, 1, 1, 1},
		{"fine, square", FineTileGrid(Rect{Max: Point{80, 80}}, 64), 8, 8, 10, 10},
		{"fine, 4:1", FineTileGrid(Rect{Max: Point{160, 40}}, 64), 16, 4, 10, 10},
	} {
		g := tc.g
		if g.Cols != tc.cols || g.Rows != tc.rows || g.TileW != tc.tileW || g.TileH != tc.tileH {
			t.Errorf("%s: got %dx%d tiles of %g×%g, want %dx%d of %g×%g",
				tc.name, g.Cols, g.Rows, g.TileW, g.TileH, tc.cols, tc.rows, tc.tileW, tc.tileH)
		}
		// Whatever the shape, every input lands inside the table.
		for _, v := range []float64{-inf, -1e300, -1, 0, 5, 7, 1e300, inf, nan} {
			for _, p := range []Point{{v, 7}, {5, v}, {v, v}} {
				if c := g.Index(p); c < 0 || c >= g.NumTiles() {
					t.Errorf("%s: Index(%v) = %d outside [0,%d)", tc.name, p, c, g.NumTiles())
				}
			}
		}
		if got, want := g.Index(g.Origin), 0; got != want {
			t.Errorf("%s: origin is tile %d", tc.name, got)
		}
	}
	// A near-line rect must not blow the fine tiling up.
	if g := FineTileGrid(Rect{Max: Point{1e9, 1e-3}}, 64); g.NumTiles() > 4*64 {
		t.Errorf("near-line rect: %dx%d tiles", g.Cols, g.Rows)
	}
}

// TestTileGridWindow pins the one query-window clamp the radius indexes
// share: every bound lands inside the grid whatever the input, and a point
// filed under Index(p) is always inside the window of a query from p — so a
// task posted outside the rect is found by a worker standing on it.
func TestTileGridWindow(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	// 4×3 grid of 30×30 tiles anchored at (100,50), reaching past (200,110).
	g := SquareTileGrid(Rect{Min: Point{100, 50}, Max: Point{200, 110}}, 30)
	if g.Cols != 4 || g.Rows != 3 || g.TileW != 30 || g.TileH != 30 {
		t.Fatalf("grid dims: %+v", g)
	}
	type window struct{ minCX, maxCX, minCY, maxCY int }
	for _, tc := range []struct {
		name string
		q    Point
		want window // at radius 30
	}{
		{"interior", Point{160, 75}, window{1, 3, 0, 1}},
		{"origin", Point{100, 50}, window{0, 1, 0, 1}},
		{"just west", Point{math.Nextafter(100, 0), 75}, window{0, 1, 0, 1}}, // +30 rounds onto the 130 boundary
		{"just east", Point{math.Nextafter(220, 1e9), 75}, window{3, 3, 0, 1}},
		{"just south", Point{160, math.Nextafter(50, 0)}, window{1, 3, 0, 1}},
		{"just north", Point{160, math.Nextafter(140, 1e9)}, window{1, 3, 2, 2}},
		// A disc wholly outside the grid still visits the border tiles, where
		// tasks posted out there are filed.
		{"disc beyond the east border", Point{300, 75}, window{3, 3, 0, 1}},
		{"disc beyond the south-west corner", Point{0, -50}, window{0, 0, 0, 0}},
		{"far west", Point{-1e300, 75}, window{0, 0, 0, 1}},
		{"far east", Point{1e300, 75}, window{3, 3, 0, 1}},
		{"far south", Point{160, -1e300}, window{1, 3, 0, 0}},
		{"far north-east", Point{1e300, 1e300}, window{3, 3, 2, 2}},
		{"-Inf x", Point{-inf, 75}, window{0, 0, 0, 1}},
		{"+Inf x", Point{inf, 75}, window{3, 3, 0, 1}},
		{"-Inf y", Point{160, -inf}, window{1, 3, 0, 0}},
		{"+Inf y", Point{160, inf}, window{1, 3, 2, 2}},
		{"NaN x keeps the rows", Point{nan, 75}, window{0, 0, 0, 1}},
		{"NaN y keeps the columns", Point{160, nan}, window{1, 3, 0, 0}},
		{"NaN point", Point{nan, nan}, window{0, 0, 0, 0}},
	} {
		var got window
		got.minCX, got.maxCX, got.minCY, got.maxCY = g.Window(tc.q, 30)
		if got != tc.want {
			t.Errorf("%s: Window(%v, 30) = %+v, want %+v", tc.name, tc.q, got, tc.want)
		}
		for _, radius := range []float64{0, 30, 1e300} {
			minCX, maxCX, minCY, maxCY := g.Window(tc.q, radius)
			if minCX < 0 || maxCX >= g.Cols || minCY < 0 || maxCY >= g.Rows {
				t.Errorf("%s: Window(%v, %g) = [%d,%d]×[%d,%d] leaves the grid", tc.name, tc.q, radius, minCX, maxCX, minCY, maxCY)
			}
			c := g.Index(tc.q)
			if cx, cy := c%g.Cols, c/g.Cols; cx < minCX || cx > maxCX || cy < minCY || cy > maxCY {
				t.Errorf("%s: tile (%d,%d) of %v is outside its own Window(·, %g) = [%d,%d]×[%d,%d]",
					tc.name, cx, cy, tc.q, radius, minCX, maxCX, minCY, maxCY)
			}
		}
	}
}

func TestTileGridFoldFree(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cols, rows int
		in, want   []int32
	}{
		{"no free tile", 2, 2, []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3}},
		{"one source floods the grid", 4, 3,
			[]int32{-1, -1, -1, -1, -1, 7, -1, -1, -1, -1, -1, -1},
			[]int32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}},
		{"opposite corners split by hop distance", 4, 3,
			[]int32{0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1},
			[]int32{0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1}},
		// Equidistant tiles go to the source that entered the queue first —
		// the lower tile index.
		{"tie goes to the lower tile", 3, 1, []int32{5, -1, 9}, []int32{5, 5, 9}},
		{"tie across rows", 1, 5, []int32{-1, 3, -1, 4, -1}, []int32{3, 3, 3, 4, 4}},
		{"no source leaves the table alone", 2, 2, []int32{-1, -1, -1, -1}, []int32{-1, -1, -1, -1}},
	} {
		g := TileGrid{TileW: 1, TileH: 1, Cols: tc.cols, Rows: tc.rows}
		got := slices.Clone(tc.in)
		g.FoldFree(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, tc.want)
		}
	}
}

// TestTileGridOwners pins the one fold behind every routing table: a tile
// holding a point owns itself, a free tile takes the owner FoldFree reaches
// first, the table is a pure function of (grid, point set), and without
// points no tile has an owner.
func TestTileGridOwners(t *testing.T) {
	// 4×3 grid of unit tiles; tile = row*4 + col.
	g := NewTileGrid(Rect{Max: Point{4, 3}}, 4, 3)
	at := func(col, row int) Point { return Point{float64(col) + 0.5, float64(row) + 0.5} }
	for _, tc := range []struct {
		name string
		pts  []Point
		want []int32
	}{
		{"no points", nil, []int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}},
		{"one point owns the grid", []Point{at(1, 1)}, []int32{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}},
		{"opposite corners split by hop distance, ties to the lower tile",
			[]Point{at(3, 2), at(0, 0)}, []int32{0, 0, 0, 11, 0, 0, 11, 11, 0, 11, 11, 11}},
		{"several points in one tile are one owner",
			[]Point{at(0, 0), {0.1, 0.9}, at(2, 0)}, []int32{0, 0, 2, 2, 0, 0, 2, 2, 0, 0, 2, 2}},
		{"points outside the rect own their border tile",
			[]Point{{-50, -50}, {1e300, 99}}, []int32{0, 0, 0, 11, 0, 0, 11, 11, 0, 11, 11, 11}},
	} {
		got := g.Owners(tc.pts)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, tc.want)
		}
		// A pure function of the point set: order and repeats do not matter.
		rev := slices.Clone(tc.pts)
		slices.Reverse(rev)
		if again := g.Owners(append(rev, tc.pts...)); !slices.Equal(again, got) {
			t.Errorf("%s: reordered points changed the table: %v", tc.name, again)
		}
		for c, o := range got {
			if o >= 0 && got[o] != o {
				t.Errorf("%s: tile %d's owner %d does not own itself", tc.name, c, o)
			}
		}
	}
}
