package ltc_test

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"ltc"
)

// The per-shard queue behind CheckInAsync, driven from several feeder
// goroutines over tiny capacities (down to one slot, so producers block on
// a full queue at nearly every step). Arrival order is up to the
// scheduler, so what must hold is conservation — after the final Flush
// every successfully enqueued worker arrived exactly once — a valid merged
// arrangement, and a queue that refuses workers once closed. The sequential async replay is a row of the
// conformance suite.

// checkQueueConservation feeds in through feeders goroutines into a
// 4-shard platform whose queues hold qcap workers each.
func checkQueueConservation(t *testing.T, in *ltc.Instance, algo ltc.Algorithm, seed uint64, qcap, feeders int) {
	t.Helper()
	plat, err := ltc.NewPlatform(in, algo, ltc.WithShards(4), ltc.WithSeed(seed), ltc.WithQueueCap(qcap))
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
				if errors.Is(err, ltc.ErrPlatformDone) {
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
	if err := plat.CheckInAsync(in.Workers[0]); !errors.Is(err, ltc.ErrPlatformClosed) {
		t.Fatalf("enqueue after Close: err = %v, want ErrPlatformClosed", err)
	}
	if got := plat.WorkersSeen(); got != int(enqueued.Load()) {
		t.Fatalf("cap=%d feeders=%d: %d workers arrived, %d enqueued — the queue lost or duplicated entries",
			qcap, feeders, got, enqueued.Load())
	}
	if err := plat.Arrangement().Validate(in, false); err != nil {
		t.Fatalf("cap=%d feeders=%d: %v", qcap, feeders, err)
	}
}

// TestAsyncQueueConservation sweeps random instances, capacities 1–7 and
// 1–4 feeders — the always-on companion of FuzzAsyncQueueConservation.
func TestAsyncQueueConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 8))
	algos := []ltc.Algorithm{ltc.LAF, ltc.AAM, ltc.RandomAssign}
	for trial := 0; trial < 10; trial++ {
		in, err := randomWorkload(rng).Generate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkQueueConservation(t, in, algos[trial%len(algos)], rng.Uint64(), 1+rng.IntN(7), 1+rng.IntN(4))
	}
}

// FuzzAsyncQueueConservation exposes the property to go fuzz: arbitrary
// generator seeds, capacities and feeder counts must never lose or
// duplicate an enqueued worker.
func FuzzAsyncQueueConservation(f *testing.F) {
	f.Add(uint64(1), uint64(42), uint8(1), uint8(2))
	f.Add(uint64(99), uint64(3), uint8(2), uint8(4))
	f.Add(uint64(1234), uint64(77), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, genSeed, algoSeed uint64, rawCap, rawFeeders uint8) {
		rng := rand.New(rand.NewPCG(genSeed, genSeed^0x9e3779b9))
		in, err := randomWorkload(rng).Generate()
		if err != nil {
			t.Skip() // degenerate generator draw
		}
		algo := []ltc.Algorithm{ltc.LAF, ltc.AAM, ltc.RandomAssign}[genSeed%3]
		checkQueueConservation(t, in, algo, algoSeed, int(rawCap)%7+1, int(rawFeeders)%4+1)
	})
}
