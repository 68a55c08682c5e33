package ltc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// This file fuzzes the per-shard queue behind CheckInAsync through its hard
// regimes: tiny capacities (down to a single slot, producers blocking on a
// full queue at every step) and Flush barriers landing mid-stream. The deterministic leg must reproduce the
// per-call replay bit for bit; the concurrent leg checks conservation —
// every enqueued worker arrives exactly once — and arrangement validity
// when arrival order is up to the scheduler.

// checkRingEquivalence replays one instance per-call and async (sequential
// enqueue with periodic Flush barriers) over one shard and requires the
// same final state regardless of queue capacity.
func checkRingEquivalence(t *testing.T, in *Instance, algo Algorithm, seed uint64, qcap, flushEvery int) {
	t.Helper()
	ref, err := NewPlatform(in, algo, WithShards(1), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.Workers {
		if ref.Done() {
			break
		}
		if _, err := ref.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}

	async, err := NewPlatform(in, algo, WithShards(1), WithSeed(seed), WithQueueCap(qcap))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range in.Workers {
		if async.Done() {
			break
		}
		if err := async.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
		if (i+1)%flushEvery == 0 {
			async.Flush() // barrier mid-stream: the queue drains to empty
		}
	}
	async.Flush()
	if err := async.Close(); err != nil {
		t.Fatal(err)
	}

	// WorkersSeen is deliberately NOT compared here: Done() is observed
	// against an asynchronous drainer, so the async leg can legitimately
	// enqueue a straggler after the completing worker (it is routed but
	// never assigned). Conservation is the concurrent leg's property.
	requireSamePlatformState(t, fmt.Sprintf("cap=%d async vs per-call", qcap), ref, async)
}

// checkRingConcurrent hammers a sharded platform's queues from several
// feeder goroutines over a tiny capacity and checks conservation: after the
// final Flush every successfully enqueued worker arrived exactly once, and
// the merged arrangement is valid for the instance.
func checkRingConcurrent(t *testing.T, in *Instance, algo Algorithm, seed uint64, qcap, feeders int) {
	t.Helper()
	plat, err := NewPlatform(in, algo, WithShards(4), WithSeed(seed), WithQueueCap(qcap))
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		enqueued atomic.Int64
	)
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) || plat.Done() {
					return
				}
				err := plat.CheckInAsync(in.Workers[i])
				if errors.Is(err, ErrPlatformDone) {
					return
				}
				if err != nil {
					t.Errorf("CheckInAsync: %v", err)
					return
				}
				enqueued.Add(1)
			}
		}()
	}
	wg.Wait()
	plat.Flush()
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}
	if got := plat.WorkersSeen(); got != int(enqueued.Load()) {
		t.Fatalf("cap=%d feeders=%d: %d workers arrived, %d enqueued — the queue lost or duplicated entries",
			qcap, feeders, got, enqueued.Load())
	}
	if err := plat.Arrangement().Validate(in, false); err != nil {
		t.Fatalf("cap=%d feeders=%d: %v", qcap, feeders, err)
	}
}

// TestRingIngestionFuzz sweeps random instances and queue shapes through
// both checkers — the deterministic seed-corpus companion of
// FuzzRingIngestionEquivalence, always on in `go test`.
func TestRingIngestionFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 8))
	algos := []Algorithm{LAF, AAM, RandomAssign}
	for trial := 0; trial < 10; trial++ {
		cfg := randomBatchWorkload(rng)
		in, err := cfg.Generate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		algo := algos[trial%len(algos)]
		seed := rng.Uint64()
		qcap := 1 + rng.IntN(7)
		flushEvery := 1 + rng.IntN(64)
		t.Logf("trial %d: %s, %d tasks, %d workers, cap=%d flushEvery=%d",
			trial, algo, len(in.Tasks), len(in.Workers), qcap, flushEvery)
		checkRingEquivalence(t, in, algo, seed, qcap, flushEvery)
		checkRingConcurrent(t, in, algo, seed, qcap, 1+rng.IntN(4))
	}
}

// FuzzRingIngestionEquivalence exposes the queue properties to go fuzz:
// arbitrary generator seeds, queue capacities (down to one slot), flush
// cadences and feeder counts must never break async-vs-per-call equivalence
// or enqueue/arrival conservation.
func FuzzRingIngestionEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(42), uint8(1), uint8(7), uint8(2))
	f.Add(uint64(99), uint64(3), uint8(2), uint8(1), uint8(4))
	f.Add(uint64(1234), uint64(77), uint8(255), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, genSeed, algoSeed uint64, rawCap, rawFlush, rawFeeders uint8) {
		rng := rand.New(rand.NewPCG(genSeed, genSeed^0x9e3779b9))
		cfg := randomBatchWorkload(rng)
		in, err := cfg.Generate()
		if err != nil {
			t.Skip() // degenerate generator draw
		}
		algo := []Algorithm{LAF, AAM, RandomAssign}[int(genSeed%3)]
		qcap := int(rawCap)%7 + 1
		flushEvery := int(rawFlush)%64 + 1
		feeders := int(rawFeeders)%4 + 1
		checkRingEquivalence(t, in, algo, algoSeed, qcap, flushEvery)
		checkRingConcurrent(t, in, algo, algoSeed, qcap, feeders)
	})
}
