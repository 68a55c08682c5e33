package ltc

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
)

// TestPlatformShardedRun: a multi-shard platform completes the workload
// with a valid arrangement and reports per-shard statistics whose global
// latencies reconcile with the platform's.
func TestPlatformShardedRun(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, AAM, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.Workers {
		if plat.Done() {
			break
		}
		if _, err := plat.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	if !plat.Done() {
		t.Fatal("platform incomplete after full stream")
	}
	if err := plat.Arrangement().Validate(in, true); err != nil {
		t.Fatal(err)
	}
	completed, total := plat.Progress()
	if completed != total {
		t.Fatalf("progress %d/%d", completed, total)
	}
	maxGlobal, totWorkers := 0, 0
	for _, s := range plat.ShardStats() {
		totWorkers += s.Workers
		if s.Latency > maxGlobal {
			maxGlobal = s.Latency
		}
	}
	if maxGlobal != plat.Latency() {
		t.Fatalf("shard global latencies max %d != platform latency %d", maxGlobal, plat.Latency())
	}
	if totWorkers != plat.WorkersSeen() {
		t.Fatalf("shard workers %d != seen %d", totWorkers, plat.WorkersSeen())
	}
	credits := plat.Credits(nil)
	if len(credits) != len(in.Tasks) {
		t.Fatalf("credits length %d", len(credits))
	}
}

// TestPlatformShardingChangesLatency documents the latency semantics of
// sharding (see CONCURRENCY.md): workers are only eligible for their own
// shard's tasks, so on a fixed sequential feed the sharded global latency
// is at least the 1-shard (Session-equivalent) latency.
func TestPlatformShardingChangesLatency(t *testing.T) {
	in := tinyInstance(t)
	run := func(shards int) (latency int, perShard []int) {
		plat, err := NewPlatform(in, LAF, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range in.Workers {
			if plat.Done() {
				break
			}
			if _, err := plat.CheckIn(w); err != nil {
				t.Fatal(err)
			}
		}
		if !plat.Done() {
			t.Fatalf("shards=%d incomplete", shards)
		}
		for _, s := range plat.ShardStats() {
			perShard = append(perShard, s.Workers)
		}
		return plat.Latency(), perShard
	}
	base, _ := run(1)
	sharded, perShard := run(4)
	if sharded < base {
		t.Fatalf("sharded latency %d < unsharded %d on fixed feed", sharded, base)
	}
	t.Logf("global latency: 1 shard = %d, 4 shards = %d; per-shard worker counts = %v", base, sharded, perShard)
}

// TestPlatformConcurrentCheckIn hammers one platform from many goroutines
// (meaningful under -race).
func TestPlatformConcurrentCheckIn(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, AAM, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) {
					return
				}
				if _, err := plat.CheckIn(in.Workers[i]); err != nil {
					if errors.Is(err, ErrPlatformDone) {
						return
					}
					t.Errorf("CheckIn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !plat.Done() {
		t.Fatal("platform incomplete")
	}
	if err := plat.Arrangement().Validate(in, true); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformValidation covers the construction error paths.
func TestPlatformValidation(t *testing.T) {
	good := tinyInstance(t)
	for _, tc := range []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no tasks", func(in *Instance) { in.Tasks = nil }},
		{"nil model", func(in *Instance) { in.Model = nil }},
		{"bad K", func(in *Instance) { in.K = 0 }},
		{"bad eps", func(in *Instance) { in.Epsilon = 1 }},
	} {
		in := *good
		tc.mutate(&in)
		if _, err := NewPlatform(&in, AAM); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, err := NewPlatform(good, MCFLTC); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("offline algorithm: err = %v", err)
	}
	if _, err := NewPlatform(good, AAM, WithShards(-2)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	// Shards = 0 defaults to GOMAXPROCS.
	p, err := NewPlatform(good, AAM)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() < 1 {
		t.Fatalf("default shards = %d", p.Shards())
	}
}

// TestNonFiniteTaskLocationRejected: one NaN or ±Inf initial task coordinate
// would turn the task bounding rect — and every layout and topology built on
// it — into NaNs, so both validators and both streaming constructors refuse
// it with ErrBadLocation, the constructors with the validator's text behind
// one "ltc: " prefix.
func TestNonFiniteTaskLocationRejected(t *testing.T) {
	good := tinyInstance(t)
	for _, tc := range []struct {
		name string
		loc  geo.Point
	}{
		{"NaN x", geo.Point{X: math.NaN(), Y: 5}},
		{"NaN y", geo.Point{X: 5, Y: math.NaN()}},
		{"+Inf x", geo.Point{X: math.Inf(1), Y: 5}},
		{"+Inf y", geo.Point{X: 5, Y: math.Inf(1)}},
		{"-Inf x", geo.Point{X: math.Inf(-1), Y: 5}},
		{"-Inf y", geo.Point{X: 5, Y: math.Inf(-1)}},
	} {
		in := *good
		in.Tasks = append([]Task(nil), good.Tasks...)
		in.Tasks[len(in.Tasks)/2].Loc = tc.loc
		_, platErr := NewPlatform(&in, AAM, WithShards(4))
		_, sessErr := NewSession(&in, AAM)
		for entry, err := range map[string]error{
			"Validate": in.Validate(), "ValidateStreaming": in.ValidateStreaming(),
			"NewPlatform": platErr, "NewSession": sessErr,
		} {
			if !errors.Is(err, model.ErrBadLocation) {
				t.Errorf("%s through %s: %v, want ErrBadLocation", tc.name, entry, err)
			}
		}
		want := "ltc: " + in.ValidateStreaming().Error()
		for entry, err := range map[string]error{"NewPlatform": platErr, "NewSession": sessErr} {
			if err == nil || err.Error() != want {
				t.Errorf("%s through %s: %v, want %q", tc.name, entry, err, want)
			}
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("the untouched instance must stay valid: %v", err)
	}
}

// TestStripedLayoutIsTotal: a striped layout with task-free tiles (3 tasks,
// 16 requested shards: a 1×3 grid whose middle tile is empty) routes every
// tile through the same owner table as any other layout — every entry is a
// shard — and a task posted into the task-free tile is served by a worker
// checking in at the same point.
func TestStripedLayoutIsTotal(t *testing.T) {
	in := &Instance{
		Epsilon: 0.1, K: 2, MinAcc: 0.5, Model: SigmoidDistance{DMax: 30},
		Tasks: []Task{
			{ID: 0, Loc: geo.Point{X: 0, Y: 0}},
			{ID: 1, Loc: geo.Point{X: 50, Y: 10}},
			{ID: 2, Loc: geo.Point{X: 100, Y: 300}},
		},
	}
	p, err := model.PartitionInstanceOpts(in, 16, model.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTiles() != 3 || p.NumShards() != 2 || p.Rebalanceable() {
		t.Fatalf("layout: %d tiles, %d shards, rebalanceable %v; want 3, 2, false", p.NumTiles(), p.NumShards(), p.Rebalanceable())
	}
	for c := 0; c < p.NumTiles(); c++ {
		if s := p.TileShard(c); s < 0 || s >= p.NumShards() {
			t.Fatalf("tile %d has shard %d", c, s)
		}
	}
	for x := -100.0; x <= 200; x += 25 {
		for y := -100.0; y <= 400; y += 12.5 {
			q := geo.Point{X: x, Y: y}
			s, o := p.LocateOwner(q)
			if s != p.Locate(q) || o != p.OwnerTile(q) || p.TileShard(o) != s {
				t.Fatalf("%v: LocateOwner (%d,%d), Locate %d, OwnerTile %d, owner's shard %d", q, s, o, p.Locate(q), p.OwnerTile(q), p.TileShard(o))
			}
		}
	}
	// The middle tile [100,200) is task-free; the fold hands it to the lower
	// tile (ties go to the lower tile index), although the nearest task to
	// its upper part is task 2, in the other shard.
	free := geo.Point{X: 50, Y: 190}
	if s, o := p.LocateOwner(free); s != 0 || o != 0 {
		t.Fatalf("task-free tile routes to (shard %d, owner %d), want (0, 0)", s, o)
	}

	plat, err := NewPlatform(in, LAF, WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	id, err := plat.PostTask(Task{Loc: free})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := plat.CheckIn(Worker{Index: 1, Loc: free, Acc: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Shard != 0 || len(rec.Assignments) != 1 || rec.Assignments[0].Task != id {
		t.Fatalf("worker on the posted task's spot got %+v from shard %d, want task %d from shard 0", rec.Assignments, rec.Shard, id)
	}
}

// TestPlatformCheckInErrors covers the runtime error paths.
func TestPlatformCheckInErrors(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, LAF, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plat.CheckIn(Worker{Index: 0}); err == nil {
		t.Fatal("zero index accepted")
	}
	for _, w := range in.Workers {
		if plat.Done() {
			break
		}
		if _, err := plat.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := plat.CheckIn(Worker{Index: 99999, Acc: 0.9}); !errors.Is(err, ErrPlatformDone) {
		t.Fatalf("err = %v, want ErrPlatformDone", err)
	}
}

// TestPlatformBounceAllocs: a check-in bounced off a complete platform
// returns a pre-wrapped ErrPlatformDone — same text, same errors.Is — on
// every check-in front door, and CheckIn and CheckInBatchInto (with room in
// dst) do so without allocating.
func TestPlatformBounceAllocs(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, LAF, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range in.Workers {
		if plat.Done() {
			break
		}
		if _, err := plat.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	w := Worker{Index: 99999, Acc: 0.9}
	ws := []Worker{w}
	dst := make([]Receipt, 0, 1)
	bounces := map[string]func() error{
		"CheckIn":          func() error { _, err := plat.CheckIn(w); return err },
		"CheckInBatch":     func() error { _, err := plat.CheckInBatch(ws); return err },
		"CheckInBatchInto": func() error { _, err := plat.CheckInBatchInto(ws, dst[:0]); return err },
	}
	for name, bounce := range bounces {
		err := bounce()
		if !errors.Is(err, ErrPlatformDone) || err.Error() != "ltc: "+ErrPlatformDone.Error() {
			t.Fatalf("%s: err = %v, want ErrPlatformDone wrapped as ltc: …", name, err)
		}
	}
	for _, name := range []string{"CheckIn", "CheckInBatchInto"} {
		if n := testing.AllocsPerRun(100, func() { _ = bounces[name]() }); n != 0 {
			t.Fatalf("bounced %s allocates %v times, want 0", name, n)
		}
	}
}

// TestArrangementRepeatedIndexMatchesCredits: a repeated arrival index (a
// client retry) must not distort the merged arrangement. Arrangement used to
// re-derive each pair's credit through a last-write-wins index→worker map,
// so both pairs were credited with the second worker's accuracy (0.32
// against the ledger's 0.97).
func TestArrangementRepeatedIndexMatchesCredits(t *testing.T) {
	in := &Instance{
		Tasks:   []Task{{ID: 0}},
		Epsilon: 0.1,
		K:       1,
		Model:   SigmoidDistance{DMax: 30},
		MinAcc:  0.66,
	}
	plat, err := NewPlatform(in, LAF, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []float64{0.95, 0.70} {
		rec, err := plat.CheckIn(Worker{Index: 1, Acc: acc})
		if err != nil || len(rec.Assignments) != 1 {
			t.Fatalf("check-in with accuracy %v: %+v, %v", acc, rec, err)
		}
	}
	arr := plat.Arrangement()
	if got, want := arr.Accumulated[0], plat.Credits(nil)[0]; got != want || len(arr.Pairs) != 2 {
		t.Fatalf("Arrangement credit %v over %d pairs, Credits %v", got, len(arr.Pairs), want)
	}
}

// TestPlatformTaskLifecycle drives the public dynamic-task API end to end:
// post mid-stream, complete, retire, and read back per-task status with
// absolute and relative latency.
func TestPlatformTaskLifecycle(t *testing.T) {
	in := tinyInstance(t)
	plat, err := NewPlatform(in, AAM, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	const postAt = 25
	for _, w := range in.Workers[:postAt] {
		if _, err := plat.CheckIn(w); err != nil && !errors.Is(err, ErrPlatformDone) {
			t.Fatal(err)
		}
	}
	// Post at a location drawn from the task cloud, so it is completable.
	id, err := plat.PostTask(Task{Loc: in.Tasks[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != len(in.Tasks) {
		t.Fatalf("posted ID %d, want %d", id, len(in.Tasks))
	}
	for _, w := range in.Workers[postAt:] {
		if plat.Done() {
			break
		}
		if _, err := plat.CheckIn(w); err != nil && !errors.Is(err, ErrPlatformDone) {
			t.Fatal(err)
		}
	}
	if !plat.Done() {
		t.Fatal("platform incomplete after full stream")
	}
	st := plat.TaskStatuses()
	if len(st) != len(in.Tasks)+1 {
		t.Fatalf("%d statuses", len(st))
	}
	posted := st[id]
	if posted.PostIndex != postAt || !posted.Completed || posted.Retired {
		t.Fatalf("posted status %+v", posted)
	}
	if posted.LastUsed <= postAt {
		t.Fatalf("posted task completed by worker %d, before its post index %d", posted.LastUsed, postAt)
	}
	if plat.RelativeLatency() > plat.Latency() {
		t.Fatalf("relative %d > absolute %d", plat.RelativeLatency(), plat.Latency())
	}
	// Retire is idempotent on completed tasks and errors on unknown IDs.
	if err := plat.RetireTask(id); err != nil {
		t.Fatal(err)
	}
	if err := plat.RetireTask(TaskID(len(st) + 5)); err == nil {
		t.Fatal("unknown retire accepted")
	}
	resolved, total := plat.Progress()
	if resolved != total || total != len(st) {
		t.Fatalf("progress %d/%d", resolved, total)
	}
}

// TestPlatformChurnReplay replays a generated churn workload (Poisson
// posts + TTL expiry) through the shared ReplayChurn driver and checks the
// lifecycle accounting: every task resolves (completed or expired — the
// TTL contract, including expiries scheduled past the stream's end), and
// the relative latency never exceeds the absolute one.
func TestPlatformChurnReplay(t *testing.T) {
	cfg := DefaultWorkload().Scale(0.01)
	cc := DefaultChurn(cfg)
	cc.TTL = 300
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if late := cw.PostedLate(); late*5 < cw.TotalTasks {
		t.Fatalf("only %d/%d tasks posted late; churn fixture must exceed 20%%", late, cw.TotalTasks)
	}
	rep, err := ReplayChurn(cw, LAF, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Statuses) != cw.TotalTasks {
		t.Fatalf("%d statuses, want %d", len(rep.Statuses), cw.TotalTasks)
	}
	if rep.Completed+rep.Expired != cw.TotalTasks {
		t.Fatalf("completed %d + expired %d ≠ total %d (TTL must resolve everything)",
			rep.Completed, rep.Expired, cw.TotalTasks)
	}
	for _, st := range rep.Statuses {
		if !st.Completed && !st.Retired {
			t.Fatalf("task %d neither completed nor expired", st.ID)
		}
	}
	if rep.RelativeLatency > rep.AbsoluteLatency {
		t.Fatalf("relative %d > absolute %d", rep.RelativeLatency, rep.AbsoluteLatency)
	}
}

// TestReplayChurnFiresTrailingExpiries pins the TTL-past-stream case: a TTL
// longer than the worker stream still resolves every task — the retire
// events scheduled beyond the last arrival fire after the stream drains.
func TestReplayChurnFiresTrailingExpiries(t *testing.T) {
	cfg := DefaultWorkload().Scale(0.01)
	cfg.NumWorkers = 60 // far too few workers to complete 30 tasks
	cc := DefaultChurn(cfg)
	cc.TTL = 1000 // every expiry lands past the 60-worker stream
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayChurn(cw, AAM, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Expired != cw.TotalTasks {
		t.Fatalf("completed %d + expired %d ≠ total %d", rep.Completed, rep.Expired, cw.TotalTasks)
	}
	if rep.Expired == 0 {
		t.Fatal("fixture must leave tasks to expire after the stream")
	}
}

// TestSessionErrorPaths extends the Session error coverage: out-of-order
// after progress, repeated indices, and arrival after completion.
func TestSessionErrorPaths(t *testing.T) {
	in := tinyInstance(t)
	sess, err := NewSession(in, LAF)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Arrive(in.Workers[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying an already-seen index must fail without advancing.
	if _, err := sess.Arrive(in.Workers[1]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("replay: err = %v", err)
	}
	// Skipping ahead must fail too.
	if _, err := sess.Arrive(in.Workers[7]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip: err = %v", err)
	}
	if sess.WorkersSeen() != 3 {
		t.Fatalf("WorkersSeen = %d after rejected arrivals", sess.WorkersSeen())
	}
	// Credits snapshot has one entry per task.
	if c := sess.Credits(nil); len(c) != len(in.Tasks) {
		t.Fatalf("credits length %d", len(c))
	}
}
