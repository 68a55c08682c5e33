package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{0, 1}) // corners given out of order
	if r.Min != (Point{0, 1}) || r.Max != (Point{2, 3}) {
		t.Fatalf("NewRect normalised wrong: %+v", r)
	}
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Point{1, 2}, true}, {Point{0, 1}, true}, {Point{2, 3}, true},
		{Point{-0.1, 2}, false}, {Point{1, 3.1}, false},
	} {
		if got := r.Contains(tc.p); got != tc.want {
			t.Fatalf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if r.Width() != 2 || r.Height() != 2 {
		t.Fatalf("extent = %v × %v", r.Width(), r.Height())
	}
}

func TestBoundingRect(t *testing.T) {
	if _, ok := BoundingRect(nil); ok {
		t.Fatal("empty input must report !ok")
	}
	r, ok := BoundingRect([]Point{{1, 5}, {-2, 3}, {4, -1}})
	if !ok || r.Min != (Point{-2, -1}) || r.Max != (Point{4, 5}) {
		t.Fatalf("BoundingRect = %+v, ok=%v", r, ok)
	}
}

// TestBoundingRectMatchesMathMinMax: BoundingRect's min and max agree with
// math.Min and math.Max bit for bit over every ordered pair of signed zeros,
// ±1, ±Inf, NaN and a subnormal. The sign of zero matters: a rect's Min
// becomes a tile grid's origin, which a cluster topology file records.
func TestBoundingRectMatchesMathMinMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, x := range vals {
		for _, y := range vals {
			wantMin, wantMax := math.Min(x, y), math.Max(x, y)
			if got := fmin(x, y); !same(got, wantMin) {
				t.Errorf("fmin(%v, %v) = %v, math.Min gives %v", x, y, got, wantMin)
			}
			if got := fmax(x, y); !same(got, wantMax) {
				t.Errorf("fmax(%v, %v) = %v, math.Max gives %v", x, y, got, wantMax)
			}
			r, _ := BoundingRect([]Point{{x, y}, {y, x}})
			if !same(r.Min.X, wantMin) || !same(r.Min.Y, wantMin) || !same(r.Max.X, wantMax) || !same(r.Max.Y, wantMax) {
				t.Errorf("BoundingRect of (%v, %v) and (%v, %v) = %+v", x, y, y, x, r)
			}
		}
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	for _, corner := range []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}} {
		found := false
		for _, h := range hull {
			if h == corner {
				found = true
			}
		}
		if !found {
			t.Fatalf("corner %v missing from hull %v", corner, hull)
		}
	}
}

func TestConvexHullCCWOrder(t *testing.T) {
	hull := ConvexHull([]Point{{0, 0}, {4, 0}, {4, 3}, {0, 3}, {2, 1}})
	for i := range hull {
		a, b, c := hull[i], hull[(i+1)%len(hull)], hull[(i+2)%len(hull)]
		if cross(a, b, c) <= 0 {
			t.Fatalf("hull not strictly counter-clockwise at %d: %v", i, hull)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Fatalf("empty hull = %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}}); len(h) != 1 {
		t.Fatalf("single point hull = %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}}); len(h) != 1 {
		t.Fatalf("duplicate point hull = %v", h)
	}
	h := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 || h[0] != (Point{0, 0}) || h[1] != (Point{3, 3}) {
		t.Fatalf("collinear hull = %v, want endpoints", h)
	}
}

func TestInConvexHull(t *testing.T) {
	hull := ConvexHull([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Point{2, 2}, true}, {Point{0, 0}, true}, {Point{4, 2}, true},
		{Point{4.001, 2}, false}, {Point{-1, -1}, false},
	} {
		if got := InConvexHull(hull, tc.p); got != tc.want {
			t.Fatalf("InConvexHull(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate hulls.
	if InConvexHull(nil, Point{0, 0}) {
		t.Fatal("empty hull contains nothing")
	}
	if !InConvexHull([]Point{{1, 1}}, Point{1, 1}) {
		t.Fatal("point hull contains its point")
	}
	seg := []Point{{0, 0}, {2, 2}}
	if !InConvexHull(seg, Point{1, 1}) || InConvexHull(seg, Point{1, 0}) {
		t.Fatal("segment hull containment wrong")
	}
}

// Property: every input point is inside its own convex hull, and the hull of
// the hull is the hull itself.
func TestConvexHullProperty(t *testing.T) {
	prop := func(raw []struct{ X, Y int8 }) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{float64(r.X), float64(r.Y)}
		}
		hull := ConvexHull(pts)
		for _, p := range pts {
			if !InConvexHull(hull, p) {
				return false
			}
		}
		again := ConvexHull(hull)
		return len(again) == len(hull)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridIndexWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	g := NewGridIndex(pts, 30)
	for trial := 0; trial < 50; trial++ {
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		radius := rng.Float64() * 80
		got := g.Within(q, radius, nil)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int32
		for i, p := range pts {
			if p.Dist(q) <= radius {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: |got|=%d |want|=%d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestGridIndexEmpty(t *testing.T) {
	g := NewGridIndex(nil, 10)
	if got := g.Within(Point{0, 0}, 100, nil); len(got) != 0 {
		t.Fatalf("Within on empty = %v", got)
	}
}

func TestGridIndexNegativeRadius(t *testing.T) {
	g := NewGridIndex([]Point{{0, 0}}, 10)
	if got := g.Within(Point{0, 0}, -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestGridIndexSinglePoint(t *testing.T) {
	g := NewGridIndex([]Point{{5, 5}}, 10)
	got := g.Within(Point{5, 5}, 0, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Within zero radius = %v", got)
	}
	if got := g.Within(Point{8, 9}, 4.9, nil); len(got) != 0 {
		t.Fatalf("Within just short of the point = %v", got)
	}
}

func TestGridIndexCellSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cellSize <= 0 must panic")
		}
	}()
	NewGridIndex(nil, 0)
}

func TestGridIndexClusteredPoints(t *testing.T) {
	// All points in one tiny cluster: the whole index is a single cell.
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{100 + float64(i)*0.01, 100}
	}
	g := NewGridIndex(pts, 30)
	got := g.Within(Point{100.25, 100}, 1, nil)
	if len(got) != 50 {
		t.Fatalf("cluster query returned %d ids, want 50", len(got))
	}
}

func BenchmarkGridIndexWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 5000)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	g := NewGridIndex(pts, 30)
	buf := make([]int32, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Point{float64(i%1000) + 0.5, float64((i*7)%1000) + 0.5}
		buf = g.Within(q, 30, buf[:0])
	}
}
