package main

import (
	"math"

	"ltc/internal/stats"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of vs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	v, _ := stats.Percentile(vs, p) // the only error is an empty sample, which reads 0
	return v
}

// median returns the median of vs; 0 when empty.
func median(vs []float64) float64 { return percentile(vs, 50) }

// relIQR returns the interquartile range of vs as a share of its median —
// the spread figure the driver holds against a metric's bound. 0 with fewer
// than two values or a zero median.
func relIQR(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	return (percentile(vs, 75) - percentile(vs, 25)) / math.Abs(m)
}

// sampler keeps a bounded, evenly strided subset of a stream of durations so
// a ten-second pass at a million calls a second neither grows without bound
// nor moves the run's peak RSS with its length. It records every stride-th
// value; when the buffer fills it drops every other kept value and doubles
// the stride, so the kept values stay evenly spaced over the whole stream.
// Not safe for concurrent use — each feeder owns one.
type sampler struct {
	vals   []int64
	stride int
	skip   int
	seen   int
}

func newSampler(capacity int) *sampler {
	return &sampler{vals: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(v int64) {
	s.seen++
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.vals) == cap(s.vals) {
		// Kept value i sits at stream position (i+1)·stride, so the odd
		// ones are exactly the multiples of the doubled stride. The value
		// in hand is one old stride past the last of them: drop it and
		// count it as half of the next interval.
		half := s.vals[:0]
		for i := 1; i < len(s.vals); i += 2 {
			half = append(half, s.vals[i])
		}
		s.vals = half
		s.skip = s.stride
		s.stride *= 2
		return
	}
	s.vals = append(s.vals, v)
}

// appendTo appends the kept values, scaled, to dst.
func (s *sampler) appendTo(dst []float64, scale float64) []float64 {
	for _, v := range s.vals {
		dst = append(dst, float64(v)*scale)
	}
	return dst
}
