package geo

import "math"

// GridIndex is a uniform-grid spatial index over a fixed set of points.
// It answers radius queries ("which tasks are within dmax of this worker?")
// in time proportional to the number of cells overlapping the query disc.
//
// The index is immutable after construction: the LTC problem fixes task
// locations up front, and worker check-ins are queried against it, so there
// is no need for dynamic updates.
type GridIndex struct {
	grid TileGrid // square cells of the configured size over the points' bounding rect
	// CSR-style layout: ids of points bucketed by cell, with cellStart
	// delimiting each cell's slice. This keeps the whole index in two
	// allocations regardless of point count.
	ids       []int32
	cellStart []int32
	pts       []Point
}

// NewGridIndex builds an index over pts with the given cell size. Cell size
// should be on the order of the typical query radius; the paper's
// eligibility radius (≈ dmax = 30 units) is a good choice. pts is retained
// by reference and must not be mutated afterwards.
func NewGridIndex(pts []Point, cellSize float64) *GridIndex {
	if cellSize <= 0 {
		panic("geo: cellSize must be positive")
	}
	r, _ := BoundingRect(pts)
	g := &GridIndex{grid: SquareTileGrid(r, cellSize), pts: pts}

	// Counting sort of point ids into cells.
	counts := make([]int32, g.grid.NumTiles()+1)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		c := g.grid.Index(p)
		cellOf[i] = int32(c)
		counts[c+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	g.cellStart = counts
	g.ids = make([]int32, len(pts))
	cursor := make([]int32, g.grid.NumTiles())
	copy(cursor, counts[:len(counts)-1])
	for i := range pts {
		c := cellOf[i]
		g.ids[cursor[c]] = int32(i)
		cursor[c]++
	}
	return g
}

// Len reports the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// CellSize returns the configured cell edge length.
func (g *GridIndex) CellSize() float64 { return g.grid.TileW }

// Within appends to dst the ids of all indexed points at Euclidean distance
// ≤ radius from q, and returns the extended slice. Order is unspecified but
// deterministic for a given index.
func (g *GridIndex) Within(q Point, radius float64, dst []int32) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	minCX, maxCX, minCY, maxCY := g.grid.Window(q, radius)
	for cy := minCY; cy <= maxCY; cy++ {
		rowBase := cy * g.grid.Cols
		for cx := minCX; cx <= maxCX; cx++ {
			c := rowBase + cx
			for _, id := range g.ids[g.cellStart[c]:g.cellStart[c+1]] {
				if g.pts[id].Dist2(q) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// Nearest returns the id of the indexed point closest to q and its
// distance. ok is false when the index is empty. Ties break toward the
// lower id.
func (g *GridIndex) Nearest(q Point) (id int, dist float64, ok bool) {
	if len(g.pts) == 0 {
		return 0, 0, false
	}
	// Expand rings of cells around q's cell until a hit is found, then one
	// extra ring to guarantee correctness (a closer point can sit in the
	// next ring when the first hit is near a cell corner).
	c := g.grid.Index(q)
	cx, cy := c%g.grid.Cols, c/g.grid.Cols
	best := -1
	bestD2 := math.Inf(1)
	maxRing := max(g.grid.Cols, g.grid.Rows)
	for ring := 0; ring <= maxRing; ring++ {
		if best >= 0 {
			// Stop once the ring's nearest possible distance exceeds best.
			minPossible := (float64(ring-1) * g.grid.TileW)
			if minPossible > 0 && minPossible*minPossible > bestD2 {
				break
			}
		}
		found := g.scanRing(q, cx, cy, ring, &best, &bestD2)
		if !found && best >= 0 && ring > 0 {
			// No cells at this ring inside the grid and we have a hit.
			break
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, math.Sqrt(bestD2), true
}

// scanRing scans the square ring at Chebyshev distance ring from (cx,cy),
// updating best/bestD2. It reports whether any in-bounds cell was visited.
func (g *GridIndex) scanRing(q Point, cx, cy, ring int, best *int, bestD2 *float64) bool {
	visited := false
	check := func(x, y int) {
		if x < 0 || x >= g.grid.Cols || y < 0 || y >= g.grid.Rows {
			return
		}
		visited = true
		c := y*g.grid.Cols + x
		for _, id := range g.ids[g.cellStart[c]:g.cellStart[c+1]] {
			d2 := g.pts[id].Dist2(q)
			if d2 < *bestD2 || (d2 == *bestD2 && int(id) < *best) {
				*bestD2 = d2
				*best = int(id)
			}
		}
	}
	if ring == 0 {
		check(cx, cy)
		return visited
	}
	for x := cx - ring; x <= cx+ring; x++ {
		check(x, cy-ring)
		check(x, cy+ring)
	}
	for y := cy - ring + 1; y <= cy+ring-1; y++ {
		check(cx-ring, y)
		check(cx+ring, y)
	}
	return visited
}
