package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"ltc/internal/core"
	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
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
// CheckInBatchInto with a recycled receipt slice (one scratch window and
// two), and CheckInAsync+Flush —
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
			// 8 workers fit one scratch window; batchWindow+36 take two, over
			// fewer batches so that every task stays open.
			for _, c := range []struct{ n, warm, runs int }{{8, 32, 200}, {batchWindow + 36, 4, 20}} {
				batch := make([]model.Worker, c.n)
				var buf []Receipt
				feed := func() {
					for i := range batch {
						batch[i] = next()
					}
					var err error
					buf, err = d.CheckInBatchInto(batch, buf[:0])
					if err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < c.warm; i++ {
					feed()
				}
				if avg := testing.AllocsPerRun(c.runs, feed); avg != 0 {
					t.Fatalf("CheckInBatchInto of %d workers allocates %.2f/batch in steady state, want 0", c.n, avg)
				}
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

// TestNewAllocsIndependentOfTasks: building a dispatcher allocates per
// shard, not per task — the candidate grids and the partition are counted
// first and then carved from one block each — so Table IV at 5 % and at 50 %
// cost New the same number of allocations, striped and balanced alike. The
// CheckInAsync queue buffers are not among them: a dispatcher fed only
// through CheckIn holds none, and the first CheckInAsync allocates all of
// them at full capacity.
func TestNewAllocsIndependentOfTasks(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	var ins []*model.Instance
	for _, scale := range []float64{0.05, 0.5} {
		cfg := workload.Default().Scale(scale)
		cfg.Seed = 42
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	for _, balanced := range []bool{false, true} {
		opt := Options{Balanced: balanced}
		var allocs []float64
		for _, in := range ins {
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				d, err := New(in, 8, aamFactory, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("balanced=%v: New allocates %v at %d tasks but %v at %d", balanced,
				allocs[0], len(ins[0].Tasks), allocs[1], len(ins[1].Tasks))
		}

		d, err := New(ins[0], 8, aamFactory, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ins[0].Workers[:64] {
			if _, err := d.CheckIn(w); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range d.queues {
			if q.buf != nil {
				t.Errorf("balanced=%v: shard %d holds a queue buffer before any CheckInAsync", balanced, i)
			}
		}
		if err := d.CheckInAsync(ins[0].Workers[64]); err != nil {
			t.Fatal(err)
		}
		d.Flush()
		for i, q := range d.queues {
			q.mu.Lock()
			if cap(q.buf) != DefaultQueueCap {
				t.Errorf("balanced=%v: shard %d queue capacity %d after CheckInAsync, want %d", balanced, i, cap(q.buf), DefaultQueueCap)
			}
			q.mu.Unlock()
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTaskGrantSizeof pins TaskGrant at 16 bytes: Credit first, then the
// 4-byte Task and the bool share the second word. Grants are carved in
// blocks of grantBlockSize on the check-in path, and any other field order
// pads the struct to 24.
func TestTaskGrantSizeof(t *testing.T) {
	if got := unsafe.Sizeof(TaskGrant{}); got != 16 {
		t.Fatalf("TaskGrant is %d bytes, want 16: keep Credit first", got)
	}
}

// mallocs reports how many heap allocations one call of f makes, counted
// as testing.AllocsPerRun counts them (MemStats.Mallocs under GOMAXPROCS 1)
// but not averaged: AllocsPerRun's integer mean reports an allocation
// amortised over many calls, such as an arena refill, as 0.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestGrantArenaAllocs pins the arena's two allocating paths, which the
// steady state takes too rarely for TestSteadyStateAllocs to see: a block's
// worth of single-grant carves refills exactly once, and a carve larger
// than a block gets exactly one dedicated block.
func TestGrantArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	var a grantArena
	if n := mallocs(func() {
		for i := 0; i < 3*grantBlockSize; i++ {
			a.carve(1)
		}
	}); n != 3 {
		t.Errorf("%d single-grant carves from an empty arena allocate %d times, want 3 block refills", 3*grantBlockSize, n)
	}
	if n := mallocs(func() { a.carve(grantBlockSize + 1) }); n != 1 {
		t.Errorf("an oversized carve allocates %d times, want its one dedicated block", n)
	}
}

// TestCheckInBadIndexAllocs pins what a rejected check-in costs. The
// wrapped ErrBadWorkerIndex names the index, which costs allocations by
// design: the path is off the hot path, and the pin only keeps it from
// growing unnoticed.
func TestCheckInBadIndexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	d, err := New(lifecycleInstance(10, 0, 60, 5), 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	avg := testing.AllocsPerRun(100, func() {
		if _, err := d.CheckIn(model.Worker{Index: 0}); !errors.Is(err, ErrBadWorkerIndex) {
			t.Fatalf("err = %v, want ErrBadWorkerIndex", err)
		}
	})
	if avg != 2 {
		t.Fatalf("a rejected check-in allocates %v times, want 2", avg)
	}
}

// completingInstance holds n tasks near the origin with K = 1 and
// ε = 0.9, so δ = 2·ln(1/0.9) ≈ 0.21 lies below the credit of one
// assignment to a 0.95-accurate worker at (5, 5) (Acc* ≈ 0.81): every
// arrival there completes exactly one task.
func completingInstance(n int) *model.Instance {
	in := &model.Instance{Epsilon: 0.9, K: 1, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < n; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: geo.Point{X: float64(i % 10), Y: float64(i / 10)}})
	}
	return in
}

// TestIngestRunAllocs pins the branches of ingestRun the steady state never
// takes. A batch run refused by its completed shard and a run bounced off a
// completed shard allocate nothing. A completing check-in allocates exactly
// what dropping its task from the candidate index allocates, recorded
// alone; without receipts the run adds one allocation, the fresh slice its
// completion events are published from (ingestRun says why it cannot be a
// reused buffer).
func TestIngestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	const warm, runs = 16, 100
	in := completingInstance(warm + runs + 1)
	ci, id := model.NewCandidateIndex(in), model.TaskID(0)
	removal := testing.AllocsPerRun(runs, func() {
		_ = ci.Remove(id)
		id++
	})
	ws, out := make([]model.Worker, 1), make([]Receipt, 1)
	next := func() []model.Worker {
		ws[0] = model.Worker{Index: ws[0].Index + 1, Loc: geo.Point{X: 5, Y: 5}, Acc: 0.95}
		return ws
	}

	for _, c := range []struct {
		name  string
		out   []Receipt
		extra float64
	}{
		{"completion/receipts", out, 0},
		{"completion/noreceipts", nil, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := New(in, 1, lafFactory)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			completeOne := func() {
				before := d.resolved.Load()
				if n, _ := d.ingestRun(0, next(), runPublish, c.out); n != 1 || d.resolved.Load() != before+1 {
					t.Fatalf("worker %d did not complete exactly one task", ws[0].Index)
				}
			}
			for i := 0; i < warm; i++ {
				completeOne()
			}
			if avg := testing.AllocsPerRun(runs, completeOne); avg != removal+c.extra {
				t.Fatalf("a completing run allocates %v times, want %v", avg, removal+c.extra)
			}
		})
	}

	// Complete the platform: every later run is refused or bounced.
	d, err := New(completingInstance(2), 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for !d.Done() {
		d.ingestRun(0, next(), runPublish, out)
	}
	t.Run("truncation", func(t *testing.T) {
		if avg := testing.AllocsPerRun(runs, func() {
			if n, _ := d.ingestRun(0, next(), runToShardDone, out); n != 0 {
				t.Fatal("a run on a done shard was not truncated")
			}
		}); avg != 0 {
			t.Fatalf("a truncated run allocates %v times, want 0", avg)
		}
	})
	for _, dst := range [][]Receipt{out, nil} {
		t.Run(fmt.Sprintf("bounce/receipts=%v", dst != nil), func(t *testing.T) {
			if avg := testing.AllocsPerRun(runs, func() {
				if n, _ := d.ingestRun(0, next(), runPublish, dst); n != 1 {
					t.Fatal("a bounced worker was not consumed")
				}
			}); avg != 0 {
				t.Fatalf("a run bounced off a done shard allocates %v times, want 0", avg)
			}
		})
	}
}

// TestQueueAllocs pins the async queue's paths the steady state never
// takes at 0 allocations: push refused by a closed dispatcher, push waiting
// for room in a full queue, and pop waiting on an empty one. The queue is
// bare, with no drainer, and a helper goroutine plays the other side of
// each wait, so the counts hold the queue alone.
func TestQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under it")
	}
	const runs = 100
	w := model.Worker{Index: 1}
	open := &Dispatcher{}
	bare := func() *shardQueue {
		q := newShardQueue(1)
		q.buf = make([]model.Worker, 0, 1)
		return q
	}
	pinZero := func(t *testing.T, what string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(runs, f); avg != 0 {
			t.Fatalf("%s allocates %v times, want 0", what, avg)
		}
	}

	t.Run("push/closed", func(t *testing.T) {
		closed := &Dispatcher{}
		closed.closed.Store(true)
		q := bare()
		pinZero(t, "a refused push", func() {
			if err := q.push(closed, w); !errors.Is(err, ErrClosed) {
				t.Fatalf("push on a closed dispatcher: %v, want ErrClosed", err)
			}
		})
	})

	t.Run("push/full", func(t *testing.T) {
		q := bare()
		if err := q.push(open, w); err != nil { // full from here on
			t.Fatal(err)
		}
		turn, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			run := make([]model.Worker, 0, 1)
			for range turn {
				// push counts itself in flight and waits under one hold
				// of mu, so once the count shows it the pop cannot miss it.
				q.mu.Lock()
				for q.inflight == len(q.buf)+len(run) {
					q.mu.Unlock()
					runtime.Gosched()
					q.mu.Lock()
				}
				q.mu.Unlock()
				run = q.pop(open, run)
				done <- struct{}{}
			}
		}()
		pinZero(t, "a push that waits for room", func() {
			turn <- struct{}{}
			if err := q.push(open, w); err != nil {
				t.Fatal(err)
			}
			<-done
		})
		close(turn)
		<-done
	})

	t.Run("pop/empty", func(t *testing.T) {
		q := bare()
		if err := q.push(open, w); err != nil {
			t.Fatal(err)
		}
		run := q.pop(open, make([]model.Worker, 0, 1)) // holds one worker in flight
		turn, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for range turn {
				// pop retires its run and waits under one hold of mu, so
				// once nothing is in flight the push cannot miss it.
				q.mu.Lock()
				for q.inflight != 0 {
					q.drained.Wait()
				}
				q.mu.Unlock()
				if err := q.push(open, w); err != nil {
					t.Error(err)
				}
				done <- struct{}{}
			}
		}()
		pinZero(t, "a pop that waits for work", func() {
			turn <- struct{}{}
			if run = q.pop(open, run); len(run) != 1 {
				t.Fatalf("pop returned %d workers, want 1", len(run))
			}
			<-done
		})
		close(turn)
		<-done
	})
}
