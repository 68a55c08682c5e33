package stats

import (
	"math"
	"testing"
)

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(5, 1.0)
	sum := 0.0
	for k := 0; k < 5; k++ {
		sum += z.p(k)
		if k > 0 && z.p(k) >= z.p(k-1) {
			t.Fatalf("P(%d)=%v not below P(%d)=%v", k, z.p(k), k-1, z.p(k-1))
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v, want 1", sum)
	}
	// The cumulative weights end at exactly 1 (sum/sum), so no draw of
	// Float64 can fall past the last rank.
	if last := z.cdf[len(z.cdf)-1]; last != 1 {
		t.Fatalf("cumulative weights end at %v, want exactly 1", last)
	}
	// Harmonic weights: P(0) = 1/H_5 = 1/(1+1/2+1/3+1/4+1/5).
	want := 1 / (1 + 0.5 + 1.0/3 + 0.25 + 0.2)
	if math.Abs(z.p(0)-want) > 1e-12 {
		t.Fatalf("P(0)=%v, want %v", z.p(0), want)
	}
}

func TestZipfSampleMatchesDistribution(t *testing.T) {
	const n, draws = 16, 200000
	z := NewZipf(n, 1.2)
	rng := NewRand(7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Sample(rng)]++
	}
	for k := 0; k < n; k++ {
		got := float64(counts[k]) / draws
		if math.Abs(got-z.p(k)) > 0.01 {
			t.Fatalf("rank %d: empirical %v vs expected %v", k, got, z.p(k))
		}
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	z := NewZipf(4, 0)
	for k := 0; k < 4; k++ {
		if math.Abs(z.p(k)-0.25) > 1e-12 {
			t.Fatalf("P(%d)=%v, want 0.25", k, z.p(k))
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(64, 1.1)
	a, b := NewRand(3), NewRand(3)
	for i := 0; i < 1000; i++ {
		if x, y := z.Sample(a), z.Sample(b); x != y {
			t.Fatalf("draw %d: %d != %d from equal seeds", i, x, y)
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {4, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

// p returns the probability of the given rank.
func (z *Zipf) p(rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}
