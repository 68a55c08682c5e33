// Package stats provides the small statistical toolkit the reproduction
// needs: deterministic seeded random sources, the accuracy distributions of
// Table IV (truncated normal, mean-centred uniform), the Zipf sampler behind
// the skewed workloads and the check-in traces, and the mean and percentile
// of a sample.
package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
)

// NewRand returns a deterministic PCG-backed random source for the given
// seed. All experiment code derives randomness from this constructor so runs
// are reproducible.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// SplitSeed derives a stream-specific seed from a base seed, so independent
// generators (locations, accuracies, arrival order, ...) never share a
// stream. The mix is SplitMix64's finalizer.
func SplitSeed(base uint64, stream uint64) uint64 {
	z := base + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TruncatedNormal samples a normal distribution with the given mean and
// stddev, rejected until the sample falls inside [lo, hi]. It matches the
// paper's "Normal: µ, σ=0.05" historical-accuracy setting, where accuracies
// are necessarily bounded (the platform discards spam workers below 0.66 and
// accuracy cannot exceed 1).
func TruncatedNormal(rng *rand.Rand, mean, stddev, lo, hi float64) float64 {
	if lo >= hi {
		panic("stats: TruncatedNormal requires lo < hi")
	}
	for i := 0; i < 1024; i++ {
		x := rng.NormFloat64()*stddev + mean
		if x >= lo && x <= hi {
			return x
		}
	}
	// Pathological parameters (mean far outside [lo,hi]); clamp rather than
	// loop forever. Not reachable with the paper's settings.
	return math.Min(hi, math.Max(lo, mean))
}

// UniformMean samples uniformly from an interval centred at mean with the
// given half-width, clipped to [lo, hi]. The paper's "Uniform: mean" setting
// leaves the width unspecified; we use ±2σ of the normal setting (0.10) so
// the two distributions have comparable spread.
func UniformMean(rng *rand.Rand, mean, halfWidth, lo, hi float64) float64 {
	a := math.Max(lo, mean-halfWidth)
	b := math.Min(hi, mean+halfWidth)
	if b <= a {
		return math.Min(hi, math.Max(lo, mean))
	}
	return a + rng.Float64()*(b-a)
}

// Zipf is a deterministic sampler over the ranks 0..n-1 with probability
// proportional to 1/(rank+1)^s — the discrete power-law the skewed workload
// scenarios use to concentrate load onto a few spatial tiles. math/rand/v2
// dropped the v1 rand.Zipf type, so the reproduction carries its own
// (inverse-CDF over the precomputed cumulative weights, O(log n) per draw).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics for
// n < 1 or s < 0 (s = 0 degenerates to the uniform distribution, which is
// allowed and occasionally useful in tests).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("stats: NewZipf requires n >= 1")
	}
	if s < 0 {
		panic("stats: NewZipf requires s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank in [0, n): rank 0 is the most likely.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ErrEmpty is returned by Percentile on empty input.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks; p outside [0, 100] gives the minimum
// or the maximum. It returns an error on empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := math.Max(0, math.Min(p/100, 1)) * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
