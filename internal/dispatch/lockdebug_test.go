//go:build lockdebug

package dispatch

import (
	"strings"
	"sync"
	"testing"

	"ltc/internal/model"
)

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}()
	f()
}

// cleanup drops any tracking state the panicking sequences left behind so
// the cases stay independent.
func ldReset() {
	ldMu.Lock()
	defer ldMu.Unlock()
	for g := range ldHeld {
		delete(ldHeld, g)
	}
}

func TestLockdebugCleanSequences(t *testing.T) {
	defer ldReset()
	// Full descending-class nesting in declared order.
	ldLock("regMu", 0)
	ldLock("shard", 3)
	ldUnlock("shard", 3)
	ldUnlock("regMu", 0)
	// Same-class ascending pair (the migration protocol).
	ldLock("regMu", 0)
	ldLock("shard", 1)
	ldLock("shard", 4)
	ldAssertHeld("shard", 1) // an engine mutation under either held shard passes
	ldAssertHeld("shard", 4)
	ldUnlock("shard", 4)
	ldUnlock("shard", 1)
	ldUnlock("regMu", 0)
	// Leaf with nothing held, then publish with nothing held.
	ldLock("leaf", 0)
	ldUnlock("leaf", 0)
	ldAssertNoneHeld("bus.Publish")
}

func TestLockdebugViolationsPanic(t *testing.T) {
	cases := []struct {
		name string
		want string
		f    func()
	}{
		{"inversion", "violates the lock order", func() {
			ldLock("shard", 0)
			ldLock("regMu", 0)
		}},
		{"snapshot reader takes the registry under a shard", "acquiring regMu(0) (level 10) while holding shard(0) (level 20)", func() {
			// A Credits or Arrangement edited to pin the ID space inside its
			// shard loop instead of around it.
			ldLock("shard", 0)
			ldLock("regMu", 0)
		}},
		{"already held", "already held", func() {
			ldLock("shard", 2)
			ldLock("shard", 2)
		}},
		{"same class descending", "ascending order", func() {
			ldLock("shard", 4)
			ldLock("shard", 1)
		}},
		{"leaf under lock", "leaf lock acquired while holding", func() {
			ldLock("shard", 0)
			ldLock("leaf", 0)
		}},
		{"publish under lock", "release every dispatch lock before publishing", func() {
			ldLock("shard", 0)
			ldAssertNoneHeld("bus.Publish")
		}},
		{"engine mutation without any lock", "shard(2) must be held here", func() {
			ldAssertHeld("shard", 2)
		}},
		{"engine mutation under another shard's mutex", "shard(2) must be held here; holding {regMu(0), shard(1)}", func() {
			ldLock("regMu", 0)
			ldLock("shard", 1)
			ldAssertHeld("shard", 2)
		}},
		{"unlock not held", "does not hold", func() {
			ldUnlock("queue", 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer ldReset()
			mustPanic(t, tc.want, tc.f)
		})
	}
}

// TestLockdebugStress drives every lock path concurrently — synchronous and
// batch check-ins, async ingestion with Flush, the task lifecycle, explicit
// tile migrations, the five snapshot readers, subscribers — with the runtime
// checker armed. Any lock
// acquired out of order panics the test. Run under -race in the nightly job.
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
	// Every lock released: the tracker must be empty.
	ldMu.Lock()
	defer ldMu.Unlock()
	if len(ldHeld) != 0 {
		t.Fatalf("locks still tracked after shutdown: %v", ldHeld)
	}
}
