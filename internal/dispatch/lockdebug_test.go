//go:build lockdebug

package dispatch

import (
	"strings"
	"sync"
	"testing"

	"ltc/internal/model"
)

// TestLockdebugViolationsPanic: an engine or index mutation reached without
// its shard's mutex panics at the assert. The lock-order cases (inversion,
// leaf or publish under a lock, same-class pairs) are lockorder fixtures; see
// CONCURRENCY.md "Enforced invariants".
func TestLockdebugViolationsPanic(t *testing.T) {
	var own, other sync.Mutex
	own.Lock()
	assertLocked(&own) // held: passes
	own.Unlock()
	cases := []struct {
		name string
		f    func()
	}{
		{"engine mutation without any lock", func() { assertLocked(&own) }},
		{"engine mutation under another shard's mutex", func() {
			other.Lock()
			defer other.Unlock()
			assertLocked(&own)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "must be held") {
					t.Fatalf("panic %q; want the held-mutex assert", r)
				}
			}()
			tc.f()
		})
	}
}

// TestLockdebugStress drives every lock path concurrently — synchronous and
// batch check-ins, async ingestion with Flush, the task lifecycle, explicit
// tile migrations, the five snapshot readers, subscribers — with the
// held-mutex asserts armed. Run under -race, it is the exclusivity check for
// the in-place candidate index; a lock-order inversion shows as a deadlock.
func TestLockdebugStress(t *testing.T) {
	in := testInstance(t, 0.05)
	d, err := New(in, 4, lafFactory, Options{Balanced: true, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subscribe(256)
	defer sub.Close()

	nextIdx := len(in.Workers)
	var idxMu sync.Mutex
	claim := func() int {
		idxMu.Lock()
		defer idxMu.Unlock()
		nextIdx++
		return nextIdx
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := in.Workers[(seed*31+i)%len(in.Workers)]
				w.Index = claim()
				if _, err := d.CheckIn(w); err != nil && err != ErrDone {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// 100 workers span two scratch windows.
			batch := make([]model.Worker, 100)
			for i := 0; i < 4; i++ {
				for k := range batch {
					batch[k] = in.Workers[(seed*13+i*len(batch)+k)%len(in.Workers)]
					batch[k].Index = claim()
				}
				out, err := d.CheckInBatch(batch)
				if err != nil && err != ErrDone || err == nil && len(out) != len(batch) || len(out) > len(batch) {
					t.Errorf("batch of %d: %d receipts, err %v", len(batch), len(out), err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := in.Workers[(seed*17+i)%len(in.Workers)]
				w.Index = claim()
				if err := d.CheckInAsync(w); err != nil && err != ErrDone && err != ErrClosed {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			loc := in.Tasks[i%len(in.Tasks)].Loc
			id, err := d.PostTask(model.Task{Loc: loc})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := d.RetireTask(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	tiles := d.part.OwnerTiles()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tile := tiles[i%len(tiles)]
			if err := d.MigrateTile(tile, i%d.NumShards()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // snapshot readers beside the writers above
		defer wg.Done()
		for i := 0; i < 50; i++ {
			d.ShardStats()
			d.Imbalance()
			d.TaskStatuses()
			d.Credits(nil)
			d.Arrangement()
		}
	}()
	wg.Wait()
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Every lock released: each shard mutex and the registry are free.
	for si, s := range d.shards {
		if !s.mu.TryLock() {
			t.Fatalf("shard %d mutex still held after Close", si)
		}
		s.mu.Unlock()
	}
	if !d.regMu.TryLock() {
		t.Fatal("regMu still held after Close")
	}
	d.regMu.Unlock()
}
