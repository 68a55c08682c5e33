package dispatch

import (
	"testing"

	"ltc/internal/core"
	"ltc/internal/model"
)

// allocFeed hands out an endless worker stream with monotone global indices,
// cycling the instance's worker pool for locations and accuracies.
func allocFeed(in *model.Instance) func() model.Worker {
	idx := 0
	return func() model.Worker {
		w := in.Workers[idx%len(in.Workers)]
		idx++
		w.Index = idx
		return w
	}
}

// TestSteadyStateAllocs pins the three ingestion paths — per-call CheckIn,
// CheckInBatchInto with a recycled receipt slice, and CheckInAsync+Flush —
// under both LAF and AAM to zero steady-state heap allocations per operation on a warmed platform.
// The instance's ε is tiny, so δ ≈ 21 keeps every task open for the whole
// measurement: the hot assignment path (solver arrive, the ledger's pair
// append, grant carving) is exercised on every call, not the done-bounce
// path.
// Amortized costs (arena blocks, slice regrowth) stay below one allocation
// per run and therefore report 0 under AllocsPerRun's integer averaging —
// exactly the accounting the benchmark artifact uses.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	in := lifecycleInstance(400, 512, 60, 31)
	in.Epsilon = 1e-9

	// perSolver runs f on a fresh two-shard dispatcher under LAF and under
	// AAM, the solver ltcd and the benchmark serve.
	perSolver := func(t *testing.T, f func(t *testing.T, d *Dispatcher)) {
		for _, s := range []struct {
			name    string
			factory core.OnlineFactory
		}{{"LAF", lafFactory}, {"AAM", aamFactory}} {
			t.Run(s.name, func(t *testing.T) {
				d, err := New(in, 2, s.factory)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				f(t, d)
			})
		}
	}

	t.Run("percall", func(t *testing.T) {
		perSolver(t, func(t *testing.T, d *Dispatcher) {
			next := allocFeed(in)
			for i := 0; i < 256; i++ { // warm: arena block, pair slice, solver state
				if _, err := d.CheckIn(next()); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := d.CheckIn(next()); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("per-call CheckIn allocates %.2f/op in steady state, want 0", avg)
			}
		})
	})

	t.Run("batch", func(t *testing.T) {
		perSolver(t, func(t *testing.T, d *Dispatcher) {
			next := allocFeed(in)
			var batch [8]model.Worker
			var buf []Receipt
			feed := func() {
				for i := range batch {
					batch[i] = next()
				}
				var err error
				buf, err = d.CheckInBatchInto(batch[:], buf[:0])
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ {
				feed()
			}
			if avg := testing.AllocsPerRun(200, feed); avg != 0 {
				t.Fatalf("CheckInBatchInto allocates %.2f/batch in steady state, want 0", avg)
			}
		})
	})

	t.Run("async", func(t *testing.T) {
		perSolver(t, func(t *testing.T, d *Dispatcher) {
			next := allocFeed(in)
			feed := func() {
				for i := 0; i < 8; i++ {
					if err := d.CheckInAsync(next()); err != nil {
						t.Fatal(err)
					}
				}
				d.Flush()
			}
			for i := 0; i < 32; i++ {
				feed()
			}
			if avg := testing.AllocsPerRun(200, feed); avg != 0 {
				t.Fatalf("async enqueue+flush allocates %.2f/run in steady state, want 0", avg)
			}
		})
	})
}
