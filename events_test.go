package ltc

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEventStreamFoldsToPolledState is the PR 4 satellite property test
// (run it under -race): while async check-ins, task posts and retires race
// across 8 shards, a subscriber folds the event stream into per-task
// state; once the platform quiesces, the fold must exactly reproduce what
// the polled v1 surface (TaskStatuses, Progress) reports — every
// completion delivered exactly once with its completing worker, every
// retire and post visible, nothing invented, nothing dropped. The
// rebalancing variant races live tile migrations against the same feed:
// the fold contract must survive tasks changing shards mid-stream, and the
// TileMigrated events must account exactly for Migrations().
func TestEventStreamFoldsToPolledState(t *testing.T) {
	t.Run("static", func(t *testing.T) { checkEventStreamFold(t, false) })
	t.Run("rebalancing", func(t *testing.T) { checkEventStreamFold(t, true) })
}

func checkEventStreamFold(t *testing.T, rebalance bool) {
	cfg := DefaultWorkload().Scale(0.05) // 150 tasks, 2000 workers
	cfg.Seed = 31
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	const maxPosts = 120
	opts := []Option{WithShards(8), WithQueueCap(64),
		// Room for every possible event: one completion per task, one
		// retire per task, the posts, the done transitions, and (with
		// rebalancing) a bounded number of migrations.
		WithEventBuffer(4*(len(in.Tasks)+maxPosts) + 256)}
	if rebalance {
		opts = append(opts, WithRebalance(RebalanceOptions{Interval: 256, Threshold: 1.0, MaxMoves: 2, Alpha: 1}))
	}
	plat, err := NewPlatform(in, AAM, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if plat.Shards() != 8 {
		t.Skipf("effective shards %d (need 8 for the scenario)", plat.Shards())
	}
	if rebalance && !plat.Rebalancing() {
		t.Skip("layout not rebalanceable for this draw")
	}
	sub := plat.Subscribe()

	var (
		wg     sync.WaitGroup
		cursor atomic.Int64
		posts  atomic.Int64
	)
	for g := 0; g < 4; g++ { // async feeders
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) {
					return
				}
				if err := plat.CheckInAsync(in.Workers[i]); err != nil {
					t.Errorf("CheckInAsync: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ { // churners: posts and retires race the feed
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+3, 41))
			for i := 0; i < maxPosts/2; i++ {
				if rng.IntN(3) > 0 {
					loc := in.Workers[rng.IntN(len(in.Workers))].Loc
					if _, err := plat.PostTask(Task{Loc: loc}); err != nil {
						t.Errorf("PostTask: %v", err)
						return
					}
					posts.Add(1)
				} else {
					_, total := plat.Progress()
					if err := plat.RetireTask(TaskID(rng.IntN(total))); err != nil {
						t.Errorf("RetireTask: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	plat.Flush()
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}

	// Quiesced: every publish happened before the calls above returned.
	// Fold the stream.
	sub.Close()
	completedBy := make(map[TaskID]int)
	retired := make(map[TaskID]bool)
	posted := make(map[TaskID]int)
	migrated := 0
	var lastSeq uint64
	for e := range sub.Events() {
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case EventTileMigrated:
			if e.Tile < 0 || e.FromShard == e.ToShard || e.Task != -1 {
				t.Fatalf("malformed TileMigrated %+v", e)
			}
			migrated++
		case EventTaskCompleted:
			if _, dup := completedBy[e.Task]; dup {
				t.Fatalf("task %d completed twice", e.Task)
			}
			completedBy[e.Task] = e.Worker
		case EventTaskRetired:
			if retired[e.Task] {
				t.Fatalf("task %d retired twice", e.Task)
			}
			retired[e.Task] = true
		case EventTaskPosted:
			if _, dup := posted[e.Task]; dup {
				t.Fatalf("task %d posted twice", e.Task)
			}
			posted[e.Task] = e.PostIndex
		case EventPlatformDone:
			// Zero or more depending on when the open count touched zero.
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("%d events dropped despite a sufficient buffer", sub.Dropped())
	}
	if migrated != plat.Migrations() {
		t.Fatalf("%d TileMigrated events, Migrations() = %d", migrated, plat.Migrations())
	}
	if !rebalance && migrated != 0 {
		t.Fatalf("static run emitted %d TileMigrated events", migrated)
	}

	// The fold must reproduce the polled surface exactly.
	statuses := plat.TaskStatuses()
	if len(statuses) != len(in.Tasks)+int(posts.Load()) {
		t.Fatalf("%d statuses, want %d", len(statuses), len(in.Tasks)+int(posts.Load()))
	}
	resolvedWant := 0
	for _, st := range statuses {
		if st.Completed != (completedBy[st.ID] != 0) {
			t.Fatalf("task %d: polled completed=%v, folded=%v", st.ID, st.Completed, completedBy[st.ID] != 0)
		}
		// The event carries the chronologically completing check-in; polled
		// LastUsed is the largest index ever assigned. Async feeders ingest
		// out of arrival-index order, so an earlier (higher-index) assignment
		// can outrank the completing one — but never the other way around:
		// the completing assignment updates LastUsed too, and a completed
		// task receives no further assignments.
		if st.Completed && completedBy[st.ID] > st.LastUsed {
			t.Fatalf("task %d: completing worker %d outranks LastUsed %d",
				st.ID, completedBy[st.ID], st.LastUsed)
		}
		if st.Retired != retired[st.ID] {
			t.Fatalf("task %d: polled retired=%v, folded=%v", st.ID, st.Retired, retired[st.ID])
		}
		if int(st.ID) >= len(in.Tasks) {
			postIdx, ok := posted[st.ID]
			if !ok {
				t.Fatalf("posted task %d has no TaskPosted event", st.ID)
			}
			if postIdx != st.PostIndex {
				t.Fatalf("task %d: event post index %d, status %d", st.ID, postIdx, st.PostIndex)
			}
		} else if _, ok := posted[st.ID]; ok {
			t.Fatalf("initial task %d has a TaskPosted event", st.ID)
		}
		if st.Completed || st.Retired {
			resolvedWant++
		}
	}
	resolved, total := plat.Progress()
	if resolved != resolvedWant || total != len(statuses) {
		t.Fatalf("Progress %d/%d, fold says %d/%d", resolved, total, resolvedWant, len(statuses))
	}
}

// TestCheckInAsyncCtxPublicSurface covers the public context-aware enqueue:
// a live context behaves exactly like CheckInAsync, a cancelled one fails
// without observing the worker, and ErrPlatformClosed still wins after
// Close. (The blocked-on-backpressure cancellation paths are pinned at the
// dispatch layer, where the queue can be deterministically wedged.)
func TestCheckInAsyncCtxPublicSurface(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, AAM, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, w := range in.Workers {
		if plat.Done() {
			break
		}
		if err := plat.CheckInAsyncCtx(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	plat.Flush()
	if !plat.Done() {
		t.Fatal("ctx-fed stream incomplete")
	}
	cancel()
	if err := plat.CheckInAsyncCtx(ctx, Worker{Index: len(in.Workers) + 1, Acc: 0.9}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled enqueue err = %v", err)
	}
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plat.CheckInAsyncCtx(context.Background(), Worker{Index: 1, Acc: 0.9}); !errors.Is(err, ErrPlatformClosed) {
		t.Fatalf("post-close enqueue err = %v", err)
	}
}
