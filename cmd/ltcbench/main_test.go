package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags: -reps below one and a -scale that is not positive are
// refused with an error naming the flag, where the sweeps used to run their
// defaults (3 and 0.05) in their place without a word.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		scale float64
		reps  int
		want  string // the flag the error names; "" when the flags pass
	}{
		{0.005, 1, ""},
		{1, 30, ""},
		{0.05, 0, "-reps"},
		{0.05, -2, "-reps"},
		{0, 3, "-scale"},
		{-0.01, 3, "-scale"},
		{math.NaN(), 3, "-scale"},
	} {
		err := checkFlags(c.scale, c.reps)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want+" ")) {
			t.Errorf("checkFlags(%g, %d) = %v, want an error naming %q", c.scale, c.reps, err, c.want)
		}
	}
}
