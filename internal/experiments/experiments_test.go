package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ltc"
	"ltc/internal/workload"
)

// tinyOptions keeps experiment tests fast: minimal scale, one rep, and the
// cheap online algorithms only (unless a test needs more).
func tinyOptions() Options {
	return Options{Scale: 0.01, Reps: 1, Seed: 7, Algorithms: []ltc.Algorithm{ltc.LAF, ltc.AAM, ltc.RandomAssign}}
}

func TestRegistryCoversAllFigurePanels(t *testing.T) {
	want := map[string]bool{}
	for _, p := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
		want["Fig.3"+p] = false
		want["Fig.4"+p] = false
	}
	for _, e := range Registry() {
		for _, p := range e.Panels {
			seen, ok := want[p]
			if !ok {
				t.Fatalf("%s claims unknown panel %q", e.ID, p)
			}
			if seen {
				t.Fatalf("panel %q claimed twice", p)
			}
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("panel %q not covered by any experiment", p)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("fig3-tasks")
	if err != nil || e.ID != "fig3-tasks" {
		t.Fatalf("Lookup = %v, %v", e, err)
	}
	if _, err := Lookup("nope"); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
	if len(IDs()) != len(Registry()) {
		t.Fatal("IDs()/Registry() mismatch")
	}
}

// TestOptionsDefaults: an unset scale, repetition count or algorithm set
// takes its default, and the seed is used as given — zero is a seed.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.05 || o.Reps != 3 || o.Seed != 0 {
		t.Fatalf("defaults = %+v", o)
	}
	if !slices.Equal(o.Algorithms, ltc.Algorithms()) {
		t.Fatalf("default algorithms = %v", o.Algorithms)
	}
}

func TestFig3TasksRuns(t *testing.T) {
	e, err := Lookup("fig3-tasks")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	var progressLines int
	o.Progress = func(string, ...any) { progressLines++ }
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Xs) != 5 {
		t.Fatalf("sweep points = %v", table.Xs)
	}
	if progressLines != 5 {
		t.Fatalf("progress lines = %d", progressLines)
	}
	for _, x := range table.Xs {
		for _, algo := range o.Algorithms {
			m, ok := table.Cells[x][algo]
			if !ok {
				t.Fatalf("missing cell %s/%s", x, algo)
			}
			if !m.Completed {
				t.Fatalf("%s at |T|=%s incomplete", algo, x)
			}
			if m.Latency <= 0 || m.Seconds < 0 || m.MemMB < 0 {
				t.Fatalf("suspicious metrics %+v", m)
			}
		}
	}
	// Monotone trend: more tasks need more workers (first vs last point).
	for _, algo := range o.Algorithms {
		lo := table.Cells[table.Xs[0]][algo].Latency
		hi := table.Cells[table.Xs[len(table.Xs)-1]][algo].Latency
		if hi <= lo {
			t.Fatalf("%s: latency did not grow with |T| (%v -> %v)", algo, lo, hi)
		}
	}
}

func TestFig4EpsilonLatencyDropsWithEpsilon(t *testing.T) {
	e, err := Lookup("fig4-epsilon")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Reps = 2
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range o.Algorithms {
		lo := table.Cells[table.Xs[0]][algo].Latency               // ε = 0.06, strict
		hi := table.Cells[table.Xs[len(table.Xs)-1]][algo].Latency // ε = 0.22, lax
		if hi >= lo {
			t.Fatalf("%s: latency did not drop as ε relaxed (%v -> %v)", algo, lo, hi)
		}
	}
}

func TestFigCapacityRuns(t *testing.T) {
	e, err := Lookup("fig3-capacity")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Scale = 0.04 // K only binds once per-worker candidate counts exceed it
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(table.Xs, ","); got != "4,5,6,7,8" {
		t.Fatalf("capacity sweep = %s", got)
	}
	// Latency must not grow with K, and capacity must bind somewhere:
	// at least one online algorithm improves strictly from K=4 to K=8.
	strict := false
	for _, algo := range o.Algorithms {
		lo := table.Cells["4"][algo].Latency
		hi := table.Cells["8"][algo].Latency
		if hi > lo {
			t.Fatalf("%s: latency grew with K (%v -> %v)", algo, lo, hi)
		}
		if hi < lo {
			strict = true
		}
	}
	if !strict {
		t.Fatal("no algorithm improved from K=4 to K=8 — capacity never bound")
	}
}

func TestCitySweepRuns(t *testing.T) {
	e, err := Lookup("fig4-newyork")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Xs) != 5 {
		t.Fatalf("sweep = %v", table.Xs)
	}
	// ε=0.06 should need at least as many workers as ε=0.22.
	for _, algo := range o.Algorithms {
		if table.Cells["0.06"][algo].Latency < table.Cells["0.22"][algo].Latency {
			t.Fatalf("%s: ε trend inverted", algo)
		}
	}
}

// TestRunPointUnknownAlgorithm: the figures run the five evaluated
// algorithms only. ltc.Solve also runs Exact, which the sweeps refuse.
func TestRunPointUnknownAlgorithm(t *testing.T) {
	e, err := Lookup("fig3-tasks")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []ltc.Algorithm{"Quantum", ltc.Exact} {
		o := tinyOptions()
		o.Algorithms = append(o.Algorithms, algo)
		if _, err := e.Run(o); !errors.Is(err, ltc.ErrUnknownAlgorithm) {
			t.Fatalf("%s: err = %v, want ltc.ErrUnknownAlgorithm", algo, err)
		}
	}
}

// TestRunPointOrderIndependent: runPoint runs every algorithm over one
// candidate index, and the online ones complete tasks out of a copy of it —
// what an algorithm reports cannot depend on which ran before it.
func TestRunPointOrderIndependent(t *testing.T) {
	in, err := workload.Default().Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	algos := []ltc.Algorithm{ltc.BaseOff, ltc.RandomAssign, ltc.LAF, ltc.AAM}
	forward, err := runPoint(in, algos, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(algos)
	backward, err := runPoint(in, algos, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range algos {
		f, b := forward[name], backward[name]
		if f.Latency != b.Latency || f.Completed != b.Completed || !f.Completed {
			t.Fatalf("%s: latency %v completed %t run last, %v / %t run first", name, f.Latency, f.Completed, b.Latency, b.Completed)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	e, err := Lookup("fig3-tasks")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig.3a", "Fig.3e", "Fig.3i", "Latency", "Runtime", "Memory", "LAF", "AAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := table.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 3 metrics × 5 xs × 3 algorithms.
	if want := 1 + 3*5*3; len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if lines[0] != "experiment,panel,metric,algorithm,x,value,completed" {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

// TestParallelSweepMatchesSerial: the worker-pool sweep runner must produce
// exactly the serial results (same Xs order, same latency values, same rep
// counts) — the deterministic-ordering contract of the parallel refactor.
func TestParallelSweepMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig3-tasks", "fig4-epsilon"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		o := tinyOptions()
		o.Reps = 2
		o.Parallel = 1
		serial, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Parallel = 8
		var lines int32
		o.Progress = func(string, ...any) { atomic.AddInt32(&lines, 1) }
		parallel, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(serial.Xs, ",") != strings.Join(parallel.Xs, ",") {
			t.Fatalf("%s: Xs order differs: %v vs %v", id, serial.Xs, parallel.Xs)
		}
		for _, x := range serial.Xs {
			for _, algo := range o.Algorithms {
				s, p := serial.Cells[x][algo], parallel.Cells[x][algo]
				if s.Latency != p.Latency || s.Reps != p.Reps || s.Completed != p.Completed {
					t.Fatalf("%s %s/%s: serial %+v vs parallel %+v", id, x, algo, s, p)
				}
			}
		}
		if lines == 0 {
			t.Fatalf("%s: no progress lines under parallel run", id)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	e, err := Lookup("fig3-capacity")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Algorithms = []ltc.Algorithm{ltc.LAF}
	a, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range a.Xs {
		if a.Cells[x][ltc.LAF].Latency != b.Cells[x][ltc.LAF].Latency {
			t.Fatalf("latency at %s differs across identical runs", x)
		}
	}
}

func TestOfflineAlgorithmsAtSmallScale(t *testing.T) {
	// Exercise MCF-LTC and Base-off through the harness (slower, so only
	// a single sweep point's worth via the capacity experiment at 0.005).
	e, err := Lookup("fig3-capacity")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: 0.005, Reps: 1, Seed: 3, Algorithms: []ltc.Algorithm{ltc.BaseOff, ltc.MCFLTC}}
	table, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range table.Xs {
		for _, algo := range o.Algorithms {
			if !table.Cells[x][algo].Completed {
				t.Fatalf("%s at K=%s incomplete", algo, x)
			}
		}
	}
}

func TestFormatDatasetTables(t *testing.T) {
	iv := FormatTableIV()
	for _, want := range []string{"3000", "40000", "0.86", "Scalability"} {
		if !strings.Contains(iv, want) {
			t.Fatalf("Table IV missing %q:\n%s", want, iv)
		}
	}
	v := FormatTableV()
	for _, want := range []string{"NewYork", "Tokyo", "3717", "227428", "9317", "573703"} {
		if !strings.Contains(v, want) {
			t.Fatalf("Table V missing %q:\n%s", want, v)
		}
	}
}

func TestPointSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for rep := 0; rep < 50; rep++ {
		for _, id := range []string{"a", "b", "fig3-tasks"} {
			s := pointSeed(42, id, rep)
			if seen[s] {
				t.Fatalf("seed collision at %s/%d", id, rep)
			}
			seen[s] = true
		}
	}
	// Paired design: the same (experiment, rep) must reproduce its seed.
	if pointSeed(42, "a", 3) != pointSeed(42, "a", 3) {
		t.Fatal("pointSeed not deterministic")
	}
}

func TestMetricsValueRows(t *testing.T) {
	m := Metrics{Latency: 1, Seconds: 2, MemMB: 3}
	if m.value(0) != 1 || m.value(1) != 2 || m.value(2) != 3 {
		t.Fatal("metric row extraction wrong")
	}
}

func TestAccumulateAverages(t *testing.T) {
	dst := map[ltc.Algorithm]Metrics{}
	accumulate(dst, map[ltc.Algorithm]Metrics{"A": {Latency: 10, Seconds: 1, MemMB: 4, Completed: true, Reps: 1}})
	accumulate(dst, map[ltc.Algorithm]Metrics{"A": {Latency: 20, Seconds: 3, MemMB: 8, Completed: true, Reps: 1}})
	m := dst["A"]
	if m.Latency != 15 || m.Seconds != 2 || m.MemMB != 6 || m.Reps != 2 || !m.Completed {
		t.Fatalf("accumulated = %+v", m)
	}
	accumulate(dst, map[ltc.Algorithm]Metrics{"A": {Latency: 15, Completed: false, Reps: 1}})
	if dst["A"].Completed {
		t.Fatal("one incomplete rep must mark the cell incomplete")
	}
}

// TestFiguresPinned pins the latency cells of every figure at scale 0.005,
// one repetition, seed 42, as TestGeneratorsPinned pins the generators: the
// other tests here check trends and compare runs with each other, this one
// fails if any algorithm's latency at any sweep point of any figure moves.
// A deliberate change to a generator, a solver or the sweeps must re-record
// the hashes and say why. It runs every figure (about 3 s), and skips under
// -race: the pool it runs on is raced by TestParallelSweepMatchesSerial.
func TestFiguresPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("every figure under the race detector takes minutes; the values are pinned without it")
	}
	want := map[string]string{
		"fig3-tasks":       "30702d279551c91a",
		"fig3-capacity":    "0371cc00bc6c9e44",
		"fig3-accnormal":   "23d0d1773649c8eb",
		"fig3-accuniform":  "787f09b4656f885b",
		"fig4-epsilon":     "4f2c7654351eb5d0",
		"fig4-scalability": "e0cc6f96effdf35f",
		"fig4-newyork":     "a1588dc4e00d7711",
		"fig4-tokyo":       "13dfcde01d98342e",
	}
	got := map[string]string{}
	for _, e := range Registry() {
		table, err := e.Run(Options{Scale: 0.005, Reps: 1, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		h := fnv.New64a()
		for _, x := range table.Xs {
			for _, algo := range table.Algorithms {
				m := table.Cells[x][algo]
				fmt.Fprintf(h, "%s %s %g %t\n", x, algo, m.Latency, m.Completed)
			}
		}
		got[e.ID] = fmt.Sprintf("%016x", h.Sum64())
	}
	for id, g := range got {
		if w, ok := want[id]; !ok || g != w {
			t.Errorf("%s: hash %s, want %s", id, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d figures run, %d pinned", len(got), len(want))
	}
}

// Experiment benchmarks — one per paper figure column (each column covers
// three panels: latency, runtime, memory). Every iteration runs the whole
// sweep at a small scale; `cmd/ltcbench` runs the same sweeps at larger
// scales with repetitions and prints the paper-style tables.

func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	e, err := Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Scale: scale, Reps: 1, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Tasks regenerates Fig. 3a/3e/3i (varying |T|).
func BenchmarkFig3Tasks(b *testing.B) { benchExperiment(b, "fig3-tasks", 0.01) }

// BenchmarkFig3Capacity regenerates Fig. 3b/3f/3j (varying K).
func BenchmarkFig3Capacity(b *testing.B) { benchExperiment(b, "fig3-capacity", 0.01) }

// BenchmarkFig3AccNormal regenerates Fig. 3c/3g/3k (Normal accuracy µ).
func BenchmarkFig3AccNormal(b *testing.B) { benchExperiment(b, "fig3-accnormal", 0.01) }

// BenchmarkFig3AccUniform regenerates Fig. 3d/3h/3l (Uniform accuracy mean).
func BenchmarkFig3AccUniform(b *testing.B) { benchExperiment(b, "fig3-accuniform", 0.01) }

// BenchmarkFig4Epsilon regenerates Fig. 4a/4e/4i (varying ε).
func BenchmarkFig4Epsilon(b *testing.B) { benchExperiment(b, "fig4-epsilon", 0.01) }

// BenchmarkFig4Scalability regenerates Fig. 4b/4f/4j (|T| up to 100k at
// full scale; benchmarked at 0.5% so each iteration stays in seconds).
func BenchmarkFig4Scalability(b *testing.B) { benchExperiment(b, "fig4-scalability", 0.005) }

// BenchmarkFig4NewYork regenerates Fig. 4c/4g/4k (New York trace).
func BenchmarkFig4NewYork(b *testing.B) { benchExperiment(b, "fig4-newyork", 0.01) }

// BenchmarkFig4Tokyo regenerates Fig. 4d/4h/4l (Tokyo trace).
func BenchmarkFig4Tokyo(b *testing.B) { benchExperiment(b, "fig4-tokyo", 0.005) }
