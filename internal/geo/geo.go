// Package geo implements the planar geometry substrate of the reproduction:
// points and distances on the paper's 1000×1000 grid, bounding boxes, convex
// hulls (used to place tasks inside the convex region of worker check-ins,
// as in the paper's real-dataset setup), the uniform-grid radius index, and
// the tile grid behind every routing table.
package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Point is a location in grid units. On the synthetic dataset one unit is a
// 10 m × 10 m cell of the paper's 1000×1000 grid.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. Cheaper
// than Dist when only comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// cross returns the z-component of (b-a) × (c-a); positive when the turn
// a→b→c is counter-clockwise.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Rect is an axis-aligned bounding box. Min is the lower-left corner and
// Max the upper-right; a Rect with Min==Max contains exactly one point.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two arbitrary corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// BoundingRect returns the tightest Rect containing all pts. ok is false for
// empty input.
func BoundingRect(pts []Point) (r Rect, ok bool) {
	if len(pts) == 0 {
		return Rect{}, false
	}
	r = Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = fmin(r.Min.X, p.X)
		r.Min.Y = fmin(r.Min.Y, p.Y)
		r.Max.X = fmax(r.Max.X, p.X)
		r.Max.Y = fmax(r.Max.Y, p.Y)
	}
	return r, true
}

// fmin is math.Min bit for bit, inlined: ordered operands that differ cost
// a comparison or two. Equal operands, where math.Min picks between signed
// zeros, and NaN take math.Min itself, so its -0, NaN and -Inf rules hold.
func fmin(x, y float64) float64 {
	if x < y {
		return x
	}
	if y < x {
		return y
	}
	return math.Min(x, y)
}

// fmax is math.Max bit for bit, the same way.
func fmax(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// ConvexHull returns the convex hull of pts in counter-clockwise order
// using Andrew's monotone chain. Collinear boundary points are dropped.
// Degenerate inputs (fewer than 3 distinct points, or all collinear) return
// the distinct extreme points (0, 1 or 2 of them, or the collinear chain's
// two endpoints).
func ConvexHull(pts []Point) []Point {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	slices.SortFunc(sorted, comparePoints)
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return uniq
	}
	hull := make([]Point, 0, 2*len(uniq))
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	hull = hull[:len(hull)-1] // last point repeats the first
	if len(hull) < 3 {
		// All input points collinear: report the two extremes.
		return []Point{uniq[0], uniq[len(uniq)-1]}
	}
	return hull
}

// comparePoints orders points by (X, Y) lexicographically.
func comparePoints(a, b Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// InConvexHull reports whether p lies inside or on the boundary of the
// convex polygon hull (counter-clockwise, as returned by ConvexHull).
// Degenerate hulls (point, segment) are handled: containment then means
// coincidence with the point or lying on the segment.
func InConvexHull(hull []Point, p Point) bool {
	switch len(hull) {
	case 0:
		return false
	case 1:
		return hull[0] == p
	case 2:
		// On segment: collinear and within the bounding box.
		if cross(hull[0], hull[1], p) != 0 {
			return false
		}
		return NewRect(hull[0], hull[1]).Contains(p)
	}
	for i := range hull {
		j := (i + 1) % len(hull)
		if cross(hull[i], hull[j], p) < 0 {
			return false
		}
	}
	return true
}
