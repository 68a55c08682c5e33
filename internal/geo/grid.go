package geo

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
