//go:build race

package httpapi

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation-count tests skip under -race.
const raceEnabled = true
