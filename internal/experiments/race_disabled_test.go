//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows the solvers some 25-fold, so TestFiguresPinned
// skips under -race.
const raceEnabled = false
