package dispatch

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/events"
	"ltc/internal/model"
)

// retireOpen retires every task still open, completing the platform.
func retireOpen(t *testing.T, d *Dispatcher) {
	t.Helper()
	for id, st := range d.TaskStatuses() {
		if !st.Completed && !st.Retired {
			if err := d.RetireTask(model.TaskID(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !d.Done() {
		t.Fatal("not done after retiring all open tasks")
	}
}

// TestAccountsFoldFromShards: the dispatcher keeps no copy of latency, the
// arrival total or the migration count — each accessor folds what the shards
// hold. Feeders, posts, retires and forced tile migrations race on eight
// balanced shards (with a reader folding the accounts beside them), then the
// completed platform bounces a few check-ins at its front door; at
// quiescence every fold must equal the same figure worked out from
// ShardStats, TaskStatuses and the test's own tallies.
func TestAccountsFoldFromShards(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d, err := New(in, 8, aamFactory, Options{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subscribe(1 << 16)
	defer sub.Close()

	var (
		mutators, reader sync.WaitGroup
		cursor           atomic.Int64
		calls, frontDoor atomic.Int64
	)
	checkIn := func(w model.Worker) {
		rec, err := d.CheckIn(w)
		if err != nil && !errors.Is(err, ErrDone) {
			t.Errorf("CheckIn: %v", err)
			return
		}
		calls.Add(1)
		if rec.Shard < 0 {
			frontDoor.Add(1)
		}
	}
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rel, lat := d.RelativeLatency(), d.Latency(); rel > lat {
				// Shard by shard the relative figure never exceeds the ledger's
				// latency, both only grow, and Latency is folded second.
				t.Errorf("relative latency %d above latency %d", rel, lat)
				return
			}
			arrived := d.Arrived()
			if arrived < last {
				t.Errorf("Arrived went backwards: %d after %d", arrived, last)
				return
			}
			last = arrived
			d.Migrations()
			d.Imbalance()
		}
	}()
	for g := 0; g < 4; g++ { // feeders
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(in.Workers) {
					return
				}
				checkIn(in.Workers[i])
			}
		}()
	}
	mutators.Add(3)
	go func() { // posts
		defer mutators.Done()
		for i := 0; i < 60; i++ {
			if _, err := d.PostTask(model.Task{Loc: in.Tasks[(i*7)%len(in.Tasks)].Loc}); err != nil {
				t.Errorf("PostTask: %v", err)
				return
			}
		}
	}()
	go func() { // retires
		defer mutators.Done()
		rng := rand.New(rand.NewPCG(26, 1))
		for i := 0; i < 40; i++ {
			_, total := d.Progress()
			if err := d.RetireTask(model.TaskID(rng.IntN(total))); err != nil {
				t.Errorf("RetireTask: %v", err)
				return
			}
		}
	}()
	go func() { // forced migrations, some of them no-ops onto the current owner
		defer mutators.Done()
		tiles := d.part.OwnerTiles()
		for i := 0; i < 200; i++ {
			if err := d.MigrateTile(tiles[i%len(tiles)], (i/len(tiles)+i)%d.NumShards()); err != nil {
				t.Errorf("MigrateTile: %v", err)
				return
			}
		}
	}()
	mutators.Wait()
	close(stop)
	reader.Wait()

	retireOpen(t, d)
	for i := 0; i < 5; i++ {
		w := in.Workers[i]
		w.Index = len(in.Workers) + 1 + i
		checkIn(w)
	}
	if frontDoor.Load() < 5 {
		t.Fatalf("%d front-door bounces, want at least the 5 on the completed platform", frontDoor.Load())
	}

	stats, statuses := d.ShardStats(), d.TaskStatuses()
	shardLatency, workers, migratedIn, migratedOut := 0, 0, 0, 0
	for _, s := range stats {
		shardLatency = max(shardLatency, s.Latency)
		workers += s.Workers
		migratedIn += s.MigratedIn
		migratedOut += s.MigratedOut
	}
	lastUsed, rel := 0, 0
	for _, st := range statuses {
		lastUsed = max(lastUsed, st.LastUsed)
		if st.LastUsed > 0 {
			rel = max(rel, st.LastUsed-st.PostIndex)
		}
	}
	if got := d.Latency(); got != shardLatency || got != lastUsed || got == 0 {
		t.Fatalf("Latency %d, max ShardStats.Latency %d, max LastUsed %d", got, shardLatency, lastUsed)
	}
	if got := d.RelativeLatency(); got != rel {
		t.Fatalf("RelativeLatency %d, max (LastUsed − PostIndex) over granted tasks %d", got, rel)
	}
	if got := d.Arrived(); got != workers+int(frontDoor.Load()) || got != int(calls.Load()) {
		t.Fatalf("Arrived %d, Σ Workers %d + %d front-door bounces, %d calls made",
			got, workers, frontDoor.Load(), calls.Load())
	}
	sub.Close()
	migrated := 0
	for e := range sub.Events() {
		if e.Kind == events.TileMigrated {
			migrated++
		}
	}
	if got := d.Migrations(); got != migratedIn || got != migratedOut || got != migrated || got == 0 {
		t.Fatalf("Migrations %d, Σ MigratedIn %d, Σ MigratedOut %d, %d TileMigrated events",
			got, migratedIn, migratedOut, migrated)
	}
	assertCreditsMatchArrangement(t, d)
}

// TestPostIndexCountsFrontDoorBounces: a check-in bounced at the front door
// of a complete platform reaches no shard, yet it ticks the arrival clock —
// a task posted after k bounced indices anchors at the last of them — and it
// counts as an arrival.
func TestPostIndexCountsFrontDoorBounces(t *testing.T) {
	in := lifecycleInstance(6, 10, 60, 9)
	d, err := New(in, 2, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	retireOpen(t, d)
	const k, first = 4, 100
	for i := 0; i < k; i++ {
		w := in.Workers[i]
		w.Index = first + i
		rec, err := d.CheckIn(w)
		if !errors.Is(err, ErrDone) || rec.Shard != -1 || !rec.Done || rec.Worker != w.Index {
			t.Fatalf("check-in on a complete platform: %+v, %v", rec, err)
		}
	}
	gid, err := d.PostTask(model.Task{Loc: in.Tasks[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TaskStatuses()[gid].PostIndex; got != first+k-1 {
		t.Fatalf("post index %d, want %d: the last bounced index", got, first+k-1)
	}
	routed := 0
	for _, s := range d.ShardStats() {
		routed += s.Workers
	}
	if routed != 0 || d.Arrived() != k {
		t.Fatalf("Arrived %d with %d routed to shards, want %d and 0", d.Arrived(), routed, k)
	}
}

// shardWorkers groups the instance's workers by the shard they route to.
func shardWorkers(d *Dispatcher, ws []model.Worker) [][]model.Worker {
	by := make([][]model.Worker, d.NumShards())
	for _, w := range ws {
		si := d.locate(w.Loc)
		by[si] = append(by[si], w)
	}
	return by
}

// TestPostIndexFoldsShardClocks: the arrival clock a post anchors to is the
// largest index any shard consumed or the front door bounced — a fold over
// per-shard clocks — so a lower index fed later, to the same shard or
// another, never pulls it back, and a bounce counts whichever shard it
// would have reached.
func TestPostIndexFoldsShardClocks(t *testing.T) {
	in := lifecycleInstance(12, 400, 60, 9)
	d, err := New(in, 4, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	by := shardWorkers(d, in.Workers)
	a, b, c := by[0][0], by[1][0], by[2][0]
	feed := func(w model.Worker, idx int) {
		t.Helper()
		w.Index = idx
		if _, err := d.CheckIn(w); err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	post := func(want int) {
		t.Helper()
		gid, err := d.PostTask(model.Task{Loc: c.Loc})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.TaskStatuses()[gid].PostIndex; got != want {
			t.Fatalf("post index %d, want %d", got, want)
		}
	}
	feed(a, 50)
	feed(b, 80)
	feed(b, 20) // out of order on the shard holding the maximum
	post(80)
	feed(a, 30) // below the maximum, on another shard
	feed(c, 90)
	post(90)
	retireOpen(t, d)
	feed(a, 70) // a bounce below the shard clocks
	post(90)
	retireOpen(t, d)
	feed(b, 120) // a bounce above them
	post(120)
	feed(a, 100) // a shard clock below the bounce clock
	post(120)
	feed(c, 130)
	post(130)
	if got := d.bounced.Load(); got != 2 {
		t.Fatalf("%d front-door bounces, want 2", got)
	}
}

// TestPostIndexBoundsUnderConcurrency: with a feeder per shard and posts
// interleaved (run with -race), every post index lies between the largest
// index whose CheckIn returned before the post began and the largest index
// fed by the time it ended — the watermark contract of the folded clock.
func TestPostIndexBoundsUnderConcurrency(t *testing.T) {
	in := lifecycleInstance(40, 4000, 60, 31)
	d, err := New(in, 4, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	var fed, returned atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait() // also when a check below fails the test
	for _, ws := range shardWorkers(d, in.Workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range ws {
				atomicMax(&fed, int64(w.Index))
				if _, err := d.CheckIn(w); err != nil && !errors.Is(err, ErrDone) {
					t.Error(err)
					return
				}
				atomicMax(&returned, int64(w.Index))
			}
		}()
	}
	rng := rand.New(rand.NewPCG(31, 7))
	for range 200 {
		lo := int(returned.Load())
		gid, err := d.PostTask(in.Tasks[rng.IntN(len(in.Tasks))])
		if err != nil {
			t.Fatal(err)
		}
		hi := int(fed.Load())
		if got := d.TaskStatuses()[gid].PostIndex; got < lo || got > hi {
			t.Fatalf("post index %d outside [%d, %d]", got, lo, hi)
		}
	}
}

// TestMigrateTileMovesOpenTasksOnly: a migration re-homes the tile's open
// tasks and nothing else. A settled task keeps its registry entry, so the
// shard where it settled goes on listing it; retiring it there is still the
// no-op it always was, announced once; and the tile migrates back.
func TestMigrateTileMovesOpenTasksOnly(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 8, nil)
	head := in.Workers[:len(in.Workers)/4]
	if _, err := d.CheckInBatch(head); err != nil {
		t.Fatal(err)
	}
	statuses := d.TaskStatuses()
	tile, from := mixedOwnerTile(t, d, in, statuses)
	to := (from + 1) % d.NumShards()
	onTile := func(gid int) bool { return d.part.OwnerTile(in.Tasks[gid].Loc) == tile }
	settled := func(gid int) bool { return statuses[gid].Completed || statuses[gid].Retired }

	recordsBefore := append([]taskRecord(nil), d.records...)
	statsBefore := d.ShardStats()
	if err := d.MigrateTile(tile, to); err != nil {
		t.Fatal(err)
	}
	open, completed := 0, -1
	for gid := range in.Tasks {
		switch {
		case !onTile(gid) || settled(gid):
			if d.records[gid] != recordsBefore[gid] {
				t.Fatalf("task %d (on tile %t, %+v) re-registered: %+v -> %+v",
					gid, onTile(gid), statuses[gid], recordsBefore[gid], d.records[gid])
			}
			if onTile(gid) && statuses[gid].Completed {
				completed = gid
			}
		default:
			open++
			if int(d.records[gid].shard) != to {
				t.Fatalf("open task %d registered on shard %d, want %d", gid, d.records[gid].shard, to)
			}
		}
	}
	// Only the open tasks changed lists; the settled ones still count at the
	// source.
	stats := d.ShardStats()
	if stats[from].Tasks != statsBefore[from].Tasks-open || stats[to].Tasks != statsBefore[to].Tasks+open ||
		stats[from].Completed != statsBefore[from].Completed || stats[to].Completed != statsBefore[to].Completed {
		t.Fatalf("shard lists after moving %d open tasks: source %+v -> %+v, target %+v -> %+v",
			open, statsBefore[from], stats[from], statsBefore[to], stats[to])
	}

	sub := d.Subscribe(64)
	defer sub.Close()
	resolved, total := d.Progress()
	for i := 0; i < 2; i++ {
		if err := d.RetireTask(model.TaskID(completed)); err != nil {
			t.Fatal(err)
		}
	}
	if r, tot := d.Progress(); r != resolved || tot != total {
		t.Fatalf("retiring a completed task moved progress: %d/%d -> %d/%d", resolved, total, r, tot)
	}
	if got := d.ShardStats()[from].Retired; got != statsBefore[from].Retired+1 {
		t.Fatalf("source shard lists %d retired tasks, want %d", got, statsBefore[from].Retired+1)
	}
	if err := d.MigrateTile(tile, from); err != nil {
		t.Fatalf("migrating the tile back: %v", err)
	}
	sub.Close()
	var kinds []events.Kind
	for e := range sub.Events() {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 2 || kinds[0] != events.TaskRetired || kinds[1] != events.TileMigrated {
		t.Fatalf("events %v, want one TaskRetired then one TileMigrated", kinds)
	}
	for gid := range in.Tasks {
		if onTile(gid) && int(d.records[gid].shard) != from {
			t.Fatalf("task %d registered on shard %d after the round trip, want %d", gid, d.records[gid].shard, from)
		}
	}
	after := d.TaskStatuses()
	statuses[completed].Retired = true
	for gid := range statuses {
		if statuses[gid] != after[gid] {
			t.Fatalf("task %d status changed across the round trip: %+v -> %+v", gid, statuses[gid], after[gid])
		}
	}
	if _, err := d.CheckInBatch(in.Workers[len(head):]); err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}
	assertCreditsMatchArrangement(t, d)
}
