package dispatch

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

func lifecycleInstance(nTasks, nWorkers int, width float64, seed uint64) *model.Instance {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	in := &model.Instance{
		Epsilon: 0.1,
		K:       4,
		Model:   model.SigmoidDistance{DMax: 30},
		MinAcc:  0.5,
	}
	for t := 0; t < nTasks; t++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID:  model.TaskID(t),
			Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width},
		})
	}
	for w := 1; w <= nWorkers; w++ {
		in.Workers = append(in.Workers, model.Worker{
			Index: w,
			Loc:   geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width},
			Acc:   0.8 + rng.Float64()*0.2,
		})
	}
	return in
}

// TestDispatcherPostRoutesToOwningShard: a posted task lands on the shard
// its location routes to — also when that location sits in a tile that held
// no initial task — and workers at the same location reach it, completing
// it eventually.
func TestDispatcherPostRoutesToOwningShard(t *testing.T) {
	// Tasks clustered in one corner so most tiles start empty.
	in := lifecycleInstance(40, 0, 80, 3)
	in.Workers = nil
	d, err := New(in, 16, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	// Post into the far (initially task-free) corner: Locate reads the tile's
	// owner-table entry for posts and check-ins alike, so the task must land
	// where workers at that location are routed.
	farLoc := geo.Point{X: 900, Y: 900}
	gid, err := d.PostTask(model.Task{Loc: farLoc})
	if err != nil {
		t.Fatal(err)
	}
	if int(gid) != len(in.Tasks) {
		t.Fatalf("posted gid %d, want %d", gid, len(in.Tasks))
	}
	if done := d.Done(); done {
		t.Fatal("dispatcher done with an open posted task")
	}
	// Flood the posted task's location with workers until it completes.
	for i := 1; i <= 200 && !taskCompleted(d, gid); i++ {
		if _, err := d.CheckIn(model.Worker{Index: i, Loc: farLoc, Acc: 0.95}); err != nil &&
			!errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	if !taskCompleted(d, gid) {
		t.Fatal("task posted into empty tile never completed")
	}
	st := d.TaskStatuses()[gid]
	if st.PostIndex != 0 || st.LastUsed == 0 {
		t.Fatalf("status %+v", st)
	}
}

func taskCompleted(d *Dispatcher, id model.TaskID) bool {
	return d.TaskStatuses()[id].Completed
}

// TestDispatcherRelativeLatency: a task posted after p arrivals reports
// latency both absolutely and relative to p.
func TestDispatcherRelativeLatency(t *testing.T) {
	in := lifecycleInstance(6, 300, 60, 9)
	d, err := New(in, 1, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	const postAt = 40
	for i := 0; i < postAt; i++ {
		if _, err := d.CheckIn(in.Workers[i]); err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	gid, err := d.PostTask(model.Task{Loc: geo.Point{X: 30, Y: 30}})
	if err != nil {
		t.Fatal(err)
	}
	for i := postAt; i < len(in.Workers) && !d.Done(); i++ {
		if _, err := d.CheckIn(in.Workers[i]); err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Fatal("incomplete")
	}
	st := d.TaskStatuses()[gid]
	if st.PostIndex != postAt {
		t.Fatalf("post index %d, want %d", st.PostIndex, postAt)
	}
	if !st.Completed || st.LastUsed <= postAt {
		t.Fatalf("status %+v", st)
	}
	if d.RelativeLatency() > d.Latency() {
		t.Fatalf("relative latency %d exceeds absolute %d", d.RelativeLatency(), d.Latency())
	}
	if d.RelativeLatency() < st.LastUsed-st.PostIndex {
		t.Fatalf("relative latency %d below the late task's own %d",
			d.RelativeLatency(), st.LastUsed-st.PostIndex)
	}
}

// TestDispatcherPostIndexSparseFeed: post indices anchor to the largest
// worker index seen — the same unit as Latency — not to the count of
// check-ins, so relative latency stays honest for sparse index feeds.
func TestDispatcherPostIndexSparseFeed(t *testing.T) {
	in := lifecycleInstance(6, 300, 60, 9)
	d, err := New(in, 1, aamFactory)
	if err != nil {
		t.Fatal(err)
	}
	// Three check-ins with sparse global indices 10, 20, 30.
	for _, idx := range []int{10, 20, 30} {
		w := in.Workers[idx-1]
		w.Index = idx
		if _, err := d.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	gid, err := d.PostTask(model.Task{Loc: geo.Point{X: 30, Y: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TaskStatuses()[gid].PostIndex; got != 30 {
		t.Fatalf("post index %d, want 30 (largest index seen, not the 3 check-ins)", got)
	}
}

// TestDispatcherRetire: retiring unknown ids errors; retiring an open task
// unblocks Done; posting revives a done dispatcher.
func TestDispatcherRetire(t *testing.T) {
	in := lifecycleInstance(5, 400, 60, 21)
	d, err := New(in, 2, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RetireTask(99); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown retire: %v", err)
	}
	if err := d.RetireTask(-1); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("negative retire: %v", err)
	}
	// Retire every initial task: platform completes without any check-in.
	for id := range in.Tasks {
		if err := d.RetireTask(model.TaskID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Fatal("not done after retiring every task")
	}
	if _, err := d.CheckIn(in.Workers[0]); !errors.Is(err, ErrDone) {
		t.Fatalf("check-in on done dispatcher: %v", err)
	}
	resolved, total := d.Progress()
	if resolved != total || total != len(in.Tasks) {
		t.Fatalf("progress %d/%d", resolved, total)
	}
	// A post revives it.
	gid, err := d.PostTask(model.Task{Loc: geo.Point{X: 30, Y: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Done() {
		t.Fatal("done right after a post")
	}
	for i := 0; i < len(in.Workers) && !d.Done(); i++ {
		if _, err := d.CheckIn(in.Workers[i]); err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	if !taskCompleted(d, gid) {
		t.Fatal("revival task never completed")
	}
}

// TestDispatcherLifecycleEngineErrorsSurface: the engine's dense-ID and
// unknown-task guards are the lifecycle calls' only failure points. A shard
// sub-instance running ahead of its engine trips the first on PostTask,
// which must roll its speculative append back and count nothing; a registry
// record pointing past the engine's task space trips the second on
// RetireTask. Check-ins keep working after both.
func TestDispatcherLifecycleEngineErrorsSurface(t *testing.T) {
	in := lifecycleInstance(8, 10, 60, 41)
	d, err := New(in, 1, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	s := d.shards[0]
	s.sub.AppendTask(model.Task{ID: 99, Loc: in.Tasks[0].Loc}) // the engine never saw it
	before := len(s.sub.Global)
	for attempt := 0; attempt < 2; attempt++ { // the rollback leaves the same state behind
		if _, err := d.PostTask(model.Task{Loc: in.Tasks[0].Loc}); err == nil {
			t.Fatal("post through a desynced sub-instance succeeded")
		}
		if _, total := d.Progress(); len(s.sub.Global) != before || total != len(in.Tasks) {
			t.Fatalf("failed post left %d local tasks (want %d), total %d", len(s.sub.Global), before, total)
		}
	}
	// Local ID 8 shares the last closed-set word with the real tasks but
	// lies past the engine's dense space.
	d.records = append(d.records, taskRecord{shard: 0, local: model.TaskID(len(in.Tasks))})
	if err := d.RetireTask(model.TaskID(len(in.Tasks))); err == nil {
		t.Fatal("retire of a task the engine does not know succeeded")
	}
	if _, err := d.CheckIn(in.Workers[0]); err != nil {
		t.Fatalf("CheckIn after failed lifecycle calls: %v", err)
	}
}

// TestDispatcherChurnStress is the -race stress test of the task lifecycle:
// feeder goroutines stream check-ins while churner goroutines post and
// retire tasks across shards. Invariants: PostTask returns dense unique
// IDs, Progress is monotone (sampled concurrently), no task is lost (every
// ID has a status; credits cover the whole dense space), and after retiring
// everything still open the dispatcher reads Done.
func TestDispatcherChurnStress(t *testing.T) {
	in := lifecycleInstance(60, 3000, 150, 31)
	d, err := New(in, 8, aamFactory)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg      sync.WaitGroup
		cursor  atomic.Int64
		postIDs sync.Map // gid → struct{}
		nPosts  atomic.Int64
	)
	// Progress monitor (own WaitGroup — it runs until the mutators finish):
	// resolved and total must never decrease.
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		lastResolved, lastTotal := 0, 0
		for {
			select {
			case <-monitorStop:
				return
			default:
			}
			resolved, total := d.Progress()
			if resolved < lastResolved || total < lastTotal {
				t.Errorf("progress went backwards: %d/%d after %d/%d", resolved, total, lastResolved, lastTotal)
				return
			}
			if resolved > total {
				t.Errorf("resolved %d exceeds total %d", resolved, total)
				return
			}
			lastResolved, lastTotal = resolved, total
			runtime.Gosched() // keep the spin polite on small GOMAXPROCS
		}
	}()

	for g := 0; g < 4; g++ { // feeders
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) {
					return
				}
				if _, err := d.CheckIn(in.Workers[i]); err != nil && !errors.Is(err, ErrDone) {
					t.Errorf("CheckIn: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ { // churners
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+100, 55))
			for i := 0; i < 80; i++ {
				if rng.IntN(3) > 0 {
					loc := geo.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150}
					gid, err := d.PostTask(model.Task{Loc: loc})
					if err != nil {
						t.Errorf("PostTask: %v", err)
						return
					}
					if _, dup := postIDs.LoadOrStore(gid, struct{}{}); dup {
						t.Errorf("duplicate posted ID %d", gid)
						return
					}
					nPosts.Add(1)
				} else {
					_, total := d.Progress()
					if err := d.RetireTask(model.TaskID(rng.IntN(total))); err != nil {
						t.Errorf("RetireTask: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(monitorStop)
	monitorWG.Wait()

	// No lost tasks: dense ID space covers initial + posts, every status is
	// addressable, credits span the same space.
	statuses := d.TaskStatuses()
	wantTotal := len(in.Tasks) + int(nPosts.Load())
	if len(statuses) != wantTotal {
		t.Fatalf("%d statuses, want %d", len(statuses), wantTotal)
	}
	if credits := d.Credits(nil); len(credits) != wantTotal {
		t.Fatalf("%d credits, want %d", len(credits), wantTotal)
	}
	postIDs.Range(func(k, _ any) bool {
		gid := k.(model.TaskID)
		if int(gid) >= wantTotal {
			t.Errorf("posted ID %d outside dense space %d", gid, wantTotal)
		}
		return true
	})

	// Drain: retire everything still open; the dispatcher must then be Done
	// and remain consistent.
	retireOpen(t, d)
	resolved, total := d.Progress()
	if resolved != total || total != wantTotal {
		t.Fatalf("final progress %d/%d, want %d/%d", resolved, total, wantTotal, wantTotal)
	}
	// The merged arrangement stays coherent with per-task credits.
	arr := d.Arrangement()
	credits := d.Credits(nil)
	if len(arr.Accumulated) != len(credits) {
		t.Fatalf("arrangement tasks %d, credits %d", len(arr.Accumulated), len(credits))
	}
	for id := range credits {
		if arr.Accumulated[id] != credits[id] {
			t.Fatalf("task %d: merged credit %v != engine credit %v", id, arr.Accumulated[id], credits[id])
		}
	}
}
