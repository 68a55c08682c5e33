package stats

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRand(8)
	same := true
	a = NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for stream := uint64(0); stream < 1000; stream++ {
		s := SplitSeed(42, stream)
		if seen[s] {
			t.Fatalf("SplitSeed collision at stream %d", stream)
		}
		seen[s] = true
	}
}

func TestTruncatedNormalBounds(t *testing.T) {
	rng := NewRand(1)
	for i := 0; i < 10000; i++ {
		x := TruncatedNormal(rng, 0.86, 0.05, 0.66, 1.0)
		if x < 0.66 || x > 1.0 {
			t.Fatalf("sample %v outside [0.66, 1.0]", x)
		}
	}
}

func TestTruncatedNormalMean(t *testing.T) {
	rng := NewRand(2)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += TruncatedNormal(rng, 0.86, 0.05, 0.66, 1.0)
	}
	mean := sum / n
	if math.Abs(mean-0.86) > 0.005 {
		t.Fatalf("empirical mean %v too far from 0.86", mean)
	}
}

func TestTruncatedNormalDegenerate(t *testing.T) {
	rng := NewRand(3)
	// Mean far outside the window: must still terminate and clamp.
	x := TruncatedNormal(rng, 10, 0.0001, 0, 1)
	if x != 1 {
		t.Fatalf("degenerate clamp = %v, want 1", x)
	}
}

func TestTruncatedNormalBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lo >= hi must panic")
		}
	}()
	TruncatedNormal(NewRand(1), 0.5, 0.1, 1, 0)
}

func TestUniformMeanBounds(t *testing.T) {
	rng := NewRand(4)
	for i := 0; i < 10000; i++ {
		x := UniformMean(rng, 0.9, 0.10, 0.66, 1.0)
		if x < 0.80-1e-12 || x > 1.0+1e-12 {
			t.Fatalf("sample %v outside [0.80, 1.0]", x)
		}
	}
}

func TestUniformMeanDegenerateWindow(t *testing.T) {
	rng := NewRand(5)
	if x := UniformMean(rng, 2.0, 0.1, 0, 1); x != 1 {
		t.Fatalf("clamp = %v, want 1", x)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {200, 5},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("empty percentile must error")
	}
}

// TestPercentileBitsPinned pins Percentile's exact bits on an unsorted
// sample, at clamped, interpolated and exact ranks: bench/ computes the
// suite's medians with it.
func TestPercentileBitsPinned(t *testing.T) {
	xs := []float64{3.5, -1.25, 7, 0.1, 2.2, 9.75, 4.4, 0.3}
	for _, tc := range []struct {
		p    float64
		bits uint64
	}{
		{-1, 0xbff4000000000000},   // -1.25
		{0, 0xbff4000000000000},    // -1.25
		{37.5, 0x3ff7cccccccccccd}, // 1.4875
		{50, 0x4006cccccccccccd},   // 2.85
		{99.9, 0x40237624dd2f1aa0}, // 9.73075
		{100, 0x4023800000000000},  // 9.75
		{150, 0x4023800000000000},  // 9.75
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != tc.bits {
			t.Errorf("Percentile(%v) = %v (%#x), want %v (%#x)", tc.p, got, math.Float64bits(got), math.Float64frombits(tc.bits), tc.bits)
		}
	}
	if xs[0] != 3.5 || xs[7] != 0.3 {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
}
