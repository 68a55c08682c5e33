package dispatch

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ltc/internal/events"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// rebalanced builds a balanced dispatcher with the given shard count and,
// optionally, the rebalancer enabled.
func rebalanced(t testing.TB, in *model.Instance, shards int, ro *RebalanceOptions) *Dispatcher {
	t.Helper()
	d, err := New(in, shards, lafFactory, Options{Balanced: true, Rebalance: ro})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hotOwnerTile returns an owner tile that currently routes to a shard with
// at least one task, plus its shard.
func hotOwnerTile(t *testing.T, d *Dispatcher) (tile, from int) {
	t.Helper()
	owners := d.part.OwnerTiles()
	if len(owners) == 0 {
		t.Fatal("balanced partition has no owner tiles")
	}
	return owners[0], d.part.TileShard(owners[0])
}

// mixedOwnerTile returns an owner tile holding both kinds of task — open
// ones, which a migration moves, and settled ones, which it leaves — plus the
// tile's shard.
func mixedOwnerTile(t *testing.T, d *Dispatcher, in *model.Instance, statuses []TaskStatus) (tile, from int) {
	t.Helper()
	open, settled := map[int]bool{}, map[int]bool{}
	for gid, task := range in.Tasks {
		o := d.part.OwnerTile(task.Loc)
		if st := statuses[gid]; st.Completed || st.Retired {
			settled[o] = true
		} else {
			open[o] = true
		}
		if open[o] && settled[o] {
			return o, d.part.TileShard(o)
		}
	}
	t.Fatal("no owner tile holds both open and settled tasks")
	return 0, 0
}

// TestMigrateTilePreservesState: a mid-stream migration moves routing and
// solver state without perturbing any observable task state — credits,
// statuses, progress and latency are identical before and after, and the
// platform keeps completing tasks at the new owner.
func TestMigrateTilePreservesState(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 8, nil)
	// A quarter of the stream leaves tiles holding open and completed tasks.
	head := in.Workers[:len(in.Workers)/4]
	if _, err := d.CheckInBatch(head); err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}

	sub := d.Subscribe(4096)
	defer sub.Close()
	creditsBefore := d.Credits(nil)
	statusesBefore := d.TaskStatuses()
	tile, from := mixedOwnerTile(t, d, in, statusesBefore)
	to := (from + 1) % d.NumShards()
	resolvedBefore, totalBefore := d.Progress()
	latBefore, relBefore := d.Latency(), d.RelativeLatency()

	if err := d.MigrateTile(tile, to); err != nil {
		t.Fatal(err)
	}

	if got := d.part.TileShard(tile); got != to {
		t.Fatalf("tile %d routes to %d after migration, want %d", tile, got, to)
	}
	creditsAfter := d.Credits(nil)
	for i := range creditsBefore {
		if creditsBefore[i] != creditsAfter[i] {
			t.Fatalf("task %d credit changed across migration: %v -> %v", i, creditsBefore[i], creditsAfter[i])
		}
	}
	statusesAfter := d.TaskStatuses()
	for i := range statusesBefore {
		if statusesBefore[i] != statusesAfter[i] {
			t.Fatalf("task %d status changed across migration: %+v -> %+v", i, statusesBefore[i], statusesAfter[i])
		}
	}
	if r, tot := d.Progress(); r != resolvedBefore || tot != totalBefore {
		t.Fatalf("progress changed across migration: %d/%d -> %d/%d", resolvedBefore, totalBefore, r, tot)
	}
	if d.Latency() != latBefore || d.RelativeLatency() != relBefore {
		t.Fatal("latency changed across migration")
	}
	if got := d.Migrations(); got != 1 {
		t.Fatalf("Migrations() = %d, want 1", got)
	}

	// The registry now names the target shard for every open task on the
	// tile; a settled one stays registered where it settled.
	moved, stayed := 0, 0
	for gid, task := range in.Tasks {
		if d.part.OwnerTile(task.Loc) != tile {
			continue
		}
		want := to
		if st := statusesBefore[gid]; st.Completed || st.Retired {
			want = from
			stayed++
		} else {
			moved++
		}
		if rec := d.records[gid]; int(rec.shard) != want {
			t.Fatalf("task %d (%+v) registered on shard %d, want %d", gid, statusesBefore[gid], rec.shard, want)
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("owner tile moved %d open tasks and kept %d settled ones: both cases must run", moved, stayed)
	}

	stats := d.ShardStats()
	if stats[from].MigratedOut != 1 || stats[to].MigratedIn != 1 {
		t.Fatalf("migration counters: out[%d]=%d in[%d]=%d", from, stats[from].MigratedOut, to, stats[to].MigratedIn)
	}
	for i, s := range stats {
		if i != from && s.MigratedOut != 0 {
			t.Fatalf("shard %d MigratedOut = %d", i, s.MigratedOut)
		}
		if i != to && s.MigratedIn != 0 {
			t.Fatalf("shard %d MigratedIn = %d", i, s.MigratedIn)
		}
	}

	// Exactly one TileMigrated event, carrying the migration triple.
	sub.Close()
	migs := 0
	for e := range sub.Events() {
		if e.Kind != events.TileMigrated {
			continue
		}
		migs++
		if e.Tile != tile || e.FromShard != from || e.ToShard != to || e.Task != -1 {
			t.Fatalf("TileMigrated event %+v, want tile %d %d->%d", e, tile, from, to)
		}
	}
	if migs != 1 {
		t.Fatalf("%d TileMigrated events, want 1", migs)
	}

	// The platform stays live: the rest of the stream lands (workers on the
	// migrated tile now route to the target) and progress only grows.
	if _, err := d.CheckInBatch(in.Workers[len(head):]); err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}
	resolvedFinal, _ := d.Progress()
	if resolvedFinal < resolvedBefore {
		t.Fatalf("progress shrank after migration: %d -> %d", resolvedBefore, resolvedFinal)
	}
	assertCreditsMatchArrangement(t, d)
}

// assertCreditsMatchArrangement cross-checks the two credit views — the
// per-shard engine accumulators (Credits, registry-deduplicated) and the
// merged arrangement — bit for bit.
func assertCreditsMatchArrangement(t *testing.T, d *Dispatcher) {
	t.Helper()
	credits := d.Credits(nil)
	merged := d.Arrangement().Accumulated
	if len(credits) != len(merged) {
		t.Fatalf("credit views disagree on task count: %d vs %d", len(credits), len(merged))
	}
	for i := range credits {
		if credits[i] != merged[i] {
			t.Fatalf("task %d credit: engines %v, merged arrangement %v", i, credits[i], merged[i])
		}
	}
}

// TestMigrateTileRoundTripSnapshot: migrating a tile away and straight back
// (no traffic in between) restores every observable — the evict/adopt pairs
// are lossless in both directions.
func TestMigrateTileRoundTripSnapshot(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 8, nil)
	if _, err := d.CheckInBatch(in.Workers[:len(in.Workers)/2]); err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}
	tile, from := hotOwnerTile(t, d)
	to := (from + 1) % d.NumShards()

	creditsBefore := d.Credits(nil)
	statusesBefore := d.TaskStatuses()
	if err := d.MigrateTile(tile, to); err != nil {
		t.Fatal(err)
	}
	if err := d.MigrateTile(tile, from); err != nil {
		t.Fatal(err)
	}
	if got := d.part.TileShard(tile); got != from {
		t.Fatalf("tile %d at shard %d after round trip, want %d", tile, got, from)
	}
	creditsAfter := d.Credits(nil)
	for i := range creditsBefore {
		if creditsBefore[i] != creditsAfter[i] {
			t.Fatalf("task %d credit changed across round trip: %v -> %v", i, creditsBefore[i], creditsAfter[i])
		}
	}
	statusesAfter := d.TaskStatuses()
	for i := range statusesBefore {
		if statusesBefore[i] != statusesAfter[i] {
			t.Fatalf("task %d status changed across round trip: %+v -> %+v", i, statusesBefore[i], statusesAfter[i])
		}
	}
	if got := d.Migrations(); got != 2 {
		t.Fatalf("Migrations() = %d, want 2", got)
	}
	// The platform keeps working on the restored layout.
	if _, err := d.CheckInBatch(in.Workers[len(in.Workers)/2:]); err != nil && !errors.Is(err, ErrDone) {
		t.Fatal(err)
	}
	assertCreditsMatchArrangement(t, d)
}

// TestSnapshotReadersBesideMigration is the regression for TaskStatuses
// resolving a task's shard and its local ID in two separate registry reads:
// a tile migration between them re-homed the task, and its new local ID was
// looked up in the shard it had just left — an index panic, or another
// task's status. Tiles ping-pong between shards (local IDs only grow, so a
// stale pairing lands out of range within a few rounds) beside posts and
// the two registry-keyed readers; every status must be its own task's.
func TestSnapshotReadersBesideMigration(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 4, nil)
	const clock = 7 // every posted task's PostIndex; initial tasks have 0
	w := in.Workers[0]
	w.Index = clock
	if _, err := d.CheckIn(w); err != nil {
		t.Fatal(err)
	}
	initial := len(in.Tasks)

	stop := make(chan struct{})
	var writers, reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for gid, st := range d.TaskStatuses() {
				want := 0
				if gid >= initial {
					want = clock
				}
				if int(st.ID) != gid || st.PostIndex != want {
					t.Errorf("status %d = %+v, want ID %d PostIndex %d", gid, st, gid, want)
					return
				}
			}
			_, total := d.Progress()
			if got := len(d.Credits(nil)); got < total {
				t.Errorf("Credits covers %d tasks, Progress reported %d", got, total)
				return
			}
		}
	}()
	writers.Add(2)
	go func() {
		defer writers.Done()
		tiles := d.part.OwnerTiles()
		for i := 0; i < 600; i++ {
			if err := d.MigrateTile(tiles[i%len(tiles)], (i/len(tiles))%d.NumShards()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			if _, err := d.PostTask(model.Task{Loc: in.Tasks[i%initial].Loc}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
}

// TestImbalanceWindowRebasesOnMigration is the load-accounting regression:
// with lifetime accounts, a shard that handed its hot tiles away stayed
// "busiest" forever on traffic it no longer serves. The window must restart
// at a migration so the metric tracks the live layout.
func TestImbalanceWindowRebasesOnMigration(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 4, nil)

	// One known worker per shard, for controlled routing.
	perShard := make([]model.Worker, d.NumShards())
	found := 0
	for _, w := range in.Workers {
		si := d.part.Locate(w.Loc)
		if perShard[si].Index == 0 {
			perShard[si] = w
			found++
			if found == d.NumShards() {
				break
			}
		}
	}
	if found < d.NumShards() {
		t.Skipf("worker pool covers only %d/%d shards", found, d.NumShards())
	}

	// Hammer one shard: lifetime imbalance goes to NumShards().
	hot := perShard[0]
	hotShard := d.part.Locate(hot.Loc)
	for i := 0; i < 200; i++ {
		if _, err := d.CheckIn(hot); err != nil && !errors.Is(err, ErrDone) {
			t.Fatal(err)
		}
	}
	if imb := d.Imbalance(); imb < float64(d.NumShards())-0.01 {
		t.Fatalf("pre-migration imbalance %.2f, want ~%d", imb, d.NumShards())
	}

	// Migrate one of the hot shard's tiles away; the window restarts empty.
	tile := -1
	for _, o := range d.part.OwnerTiles() {
		if d.part.TileShard(o) == hotShard {
			tile = o
			break
		}
	}
	if tile < 0 {
		t.Fatalf("hot shard %d owns no tiles", hotShard)
	}
	if err := d.MigrateTile(tile, (hotShard+1)%d.NumShards()); err != nil {
		t.Fatal(err)
	}
	if imb := d.Imbalance(); imb != 1.0 {
		t.Fatalf("imbalance right after migration = %.2f, want 1.0 (empty window)", imb)
	}

	// Perfectly even traffic after the migration reads as balanced — under
	// the old lifetime accounts the hot shard's 200 historical check-ins
	// would have pinned this near NumShards() forever.
	for round := 0; round < 5; round++ {
		for _, w := range perShard {
			if _, err := d.CheckIn(w); err != nil && !errors.Is(err, ErrDone) {
				t.Fatal(err)
			}
		}
	}
	if imb := d.Imbalance(); imb > 1.6 {
		t.Fatalf("post-migration imbalance %.2f under even traffic, want ~1.0", imb)
	}
}

// TestRebalancerMigratesHotTiles drives skewed traffic at a rebalancing
// dispatcher and waits for the forecaster to move tiles off the hot shard.
func TestRebalancerMigratesHotTiles(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	d := rebalanced(t, in, 4, &RebalanceOptions{Interval: 64, Threshold: 1.0, MaxMoves: 2, Alpha: 1})
	defer d.Close()
	if !d.Rebalancing() {
		t.Fatal("rebalancer not active")
	}

	// Two worker groups on distinct owner tiles of the same shard: the
	// rebalancer can then peel one tile off without just moving the hotspot.
	byTile := make(map[int][]model.Worker)
	tileShard := make(map[int]int)
	for _, w := range in.Workers {
		si, o := d.part.LocateOwner(w.Loc)
		if o >= 0 {
			byTile[o] = append(byTile[o], w)
			tileShard[o] = si
		}
	}
	tileA, tileB := -1, -1
	for a, sa := range tileShard {
		for b, sb := range tileShard {
			if a != b && sa == sb && len(byTile[a]) > 0 && len(byTile[b]) > 0 {
				tileA, tileB = a, b
			}
		}
	}
	if tileA < 0 {
		t.Skip("no two co-sharded owner tiles with workers in the pool")
	}

	feed := func() {
		for i := 0; i < 64; i++ {
			w := byTile[tileA][i%len(byTile[tileA])]
			if i%3 == 0 {
				w = byTile[tileB][i%len(byTile[tileB])]
			}
			if _, err := d.CheckIn(w); err != nil && !errors.Is(err, ErrDone) {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Migrations() == 0 && time.Now().Before(deadline) {
		feed()
		time.Sleep(time.Millisecond)
	}
	if d.Migrations() == 0 {
		t.Fatal("rebalancer never migrated a tile under sustained skew")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The layout moved mid-stream; every observable stays coherent.
	assertCreditsMatchArrangement(t, d)
	stats := d.ShardStats()
	in1, out1 := 0, 0
	for _, s := range stats {
		in1 += s.MigratedIn
		out1 += s.MigratedOut
	}
	if in1 != d.Migrations() || out1 != d.Migrations() {
		t.Fatalf("per-shard migration counters (in %d, out %d) don't sum to Migrations() = %d", in1, out1, d.Migrations())
	}
}

// TestRebalanceOptionValidation covers the construction error paths and the
// single-shard degenerate case.
func TestRebalanceOptionValidation(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	if _, err := New(in, 4, lafFactory, Options{Rebalance: &RebalanceOptions{}}); !errors.Is(err, model.ErrNotRebalanceable) {
		t.Fatalf("rebalance without balanced layout: %v, want ErrRebalanceLayout", err)
	}
	for _, bad := range []RebalanceOptions{
		{Interval: -1}, {Threshold: 0.5}, {MaxMoves: -2}, {Alpha: 1.5},
	} {
		if _, err := New(in, 4, lafFactory, Options{Balanced: true, Rebalance: &bad}); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("rebalance options %+v: %v, want ErrBadOptions", bad, err)
		}
	}
	// Single shard: nothing to migrate between — rebalancing is inert, not
	// an error, so shard-count sweeps can keep one options struct.
	d, err := New(in, 1, lafFactory, Options{Balanced: true, Rebalance: &RebalanceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rebalancing() {
		t.Fatal("single-shard dispatcher claims to rebalance")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateTileRejections covers the explicit-migration error paths.
func TestMigrateTileRejections(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	striped, err := New(in, 4, lafFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := striped.MigrateTile(0, 1); !errors.Is(err, model.ErrNotRebalanceable) {
		t.Fatalf("striped MigrateTile: %v, want ErrNotRebalanceable", err)
	}

	d := rebalanced(t, in, 4, nil)
	tile, from := hotOwnerTile(t, d)
	if err := d.MigrateTile(tile, d.NumShards()); err == nil {
		t.Fatal("out-of-range target shard accepted")
	}
	if err := d.MigrateTile(tile, -1); err == nil {
		t.Fatal("negative target shard accepted")
	}
	if err := d.MigrateTile(-1, 0); err == nil {
		t.Fatal("negative tile accepted")
	}
	// Migrating onto the current owner is a no-op: no counters, no event.
	sub := d.Subscribe(16)
	if err := d.MigrateTile(tile, from); err != nil {
		t.Fatalf("same-shard migration: %v", err)
	}
	sub.Close()
	if d.Migrations() != 0 {
		t.Fatalf("no-op migration counted: %d", d.Migrations())
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("no-op migration published an event")
	}
}

// TestLoadSampleOverride: Options.LoadSample replaces the instance-worker
// stride sample as the balanced layout's load profile. Packing against a
// profile concentrated on one tile must shape the layout differently than
// the full-stream oracle — this is the hook the churn replayer uses to pack
// against the live arrival stream (see ltc.ReplayChurn).
func TestLoadSampleOverride(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	base, err := New(in, 4, lafFactory, Options{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	// Profile: every worker location duplicated from the first worker —
	// all forecast load on one tile.
	override := make([]geo.Point, 0, 64)
	for i := 0; i < 64; i++ {
		override = append(override, in.Workers[0].Loc)
	}
	d, err := New(in, 4, lafFactory, Options{Balanced: true, LoadSample: override})
	if err != nil {
		t.Fatal(err)
	}
	// The override must actually reach the partitioner: with all load on a
	// single tile, the tile→shard layout differs from the full-sample pack.
	same := true
	for c := 0; c < d.part.NumTiles(); c++ {
		if d.part.TileShard(c) != base.part.TileShard(c) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("LoadSample override produced the identical layout — not plumbed through")
	}
}

// TestRebalancerHaltWaitsForInflightPass pins the pass/halt handshake:
// a crossing that loses the passing claim skips without folding the
// interval's counters, halt spins until the in-flight pass clears, and
// crossings after halt are no-ops.
func TestRebalancerHaltWaitsForInflightPass(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, &RebalanceOptions{Interval: 64, Threshold: 1.2, MaxMoves: 2, Alpha: 1})
	defer d.Close()
	rb := d.rb
	owners := d.part.OwnerTiles()
	rb.tileLoad[owners[0]].n.Store(7)
	rb.passing.Store(true)
	rb.arrivals.Store(63)
	rb.noteArrived(1) // crossing, but a pass is "already running"
	if got := rb.tileLoad[owners[0]].n.Load(); got != 7 {
		t.Fatalf("skipped pass folded the interval counters: %d", got)
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		rb.passing.Store(false)
		close(done)
	}()
	rb.halt()
	<-done
	if !rb.stopped.Load() {
		t.Fatal("halt did not freeze the layout")
	}
	rb.arrivals.Store(127)
	rb.noteArrived(1) // post-halt crossing is a no-op
	if got := rb.tileLoad[owners[0]].n.Load(); got != 7 {
		t.Fatalf("post-halt crossing folded the interval counters: %d", got)
	}
}

// TestRebalancePassSurvivesMigrationFailure: when MigrateTile refuses
// mid-pass (here: the layout stops being rebalanceable under the pass's
// feet), the pass bails out without corrupting its accounting instead of
// retrying or panicking — the next interval simply tries again.
func TestRebalancePassSurvivesMigrationFailure(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, &RebalanceOptions{Interval: 64, Threshold: 1.2, MaxMoves: 2, Alpha: 1})
	defer d.Close()
	rb := d.rb
	byShard := map[int][]int{}
	for _, o := range d.part.OwnerTiles() {
		s := d.part.TileShard(o)
		byShard[s] = append(byShard[s], o)
	}
	var tiles []int
	for _, ts := range byShard {
		if len(ts) >= 2 {
			tiles = ts
			break
		}
	}
	if len(tiles) < 2 {
		t.Skip("no shard owns two tiles at this layout")
	}
	// Two hot tiles on one shard make a strictly-improving move exist.
	rb.tileLoad[tiles[0]].n.Store(60)
	rb.tileLoad[tiles[1]].n.Store(50)
	d.part.Balanced = false
	rb.rebalance()
	d.part.Balanced = true
	if got := d.Migrations(); got != 0 {
		t.Fatalf("pass migrated %d tile(s) through a non-rebalanceable layout", got)
	}
}

// TestMigrateTileEvictFailureSurfaces: a source sub-instance running ahead
// of its engine (a task the engine never saw) trips the engine's
// unknown-task guard mid-migration, and MigrateTile surfaces the error.
func TestMigrateTileEvictFailureSurfaces(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, nil)
	defer d.Close()
	tile, from := hotOwnerTile(t, d)
	sf := d.shards[from]
	var ghost model.Task
	found := false
	for i := range sf.sub.Global {
		if src := sf.sub.SourceTask(model.TaskID(i)); d.part.OwnerTile(src.Loc) == tile {
			ghost, found = src, true
			break
		}
	}
	if !found {
		t.Fatal("owner tile holds no tasks")
	}
	ghost.ID = model.TaskID(len(in.Tasks) + 1)
	sf.sub.AppendTask(ghost)
	if err := d.MigrateTile(tile, (from+1)%d.NumShards()); err == nil {
		t.Fatal("migration with a desynced source sub-instance succeeded")
	}
	if got := d.Migrations(); got != 0 {
		t.Fatalf("failed migration counted: %d", got)
	}
}

// TestMigrateTileAdoptFailureRollsBack: a target sub-instance running ahead
// of its engine breaks the dense-ID handshake on the first adoption;
// MigrateTile must roll the speculative append back and surface the error.
func TestMigrateTileAdoptFailureRollsBack(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, nil)
	defer d.Close()
	tile, from := hotOwnerTile(t, d)
	to := (from + 1) % d.NumShards()
	st := d.shards[to]
	ghost := d.shards[from].sub.SourceTask(0)
	ghost.ID = model.TaskID(len(in.Tasks) + 2)
	st.sub.AppendTask(ghost)
	before := len(st.sub.Global)
	if err := d.MigrateTile(tile, to); err == nil {
		t.Fatal("migration into a desynced target sub-instance succeeded")
	}
	if got := len(st.sub.Global); got != before {
		t.Fatalf("failed adoption left the target at %d tasks, want %d", got, before)
	}
	if got := d.Migrations(); got != 0 {
		t.Fatalf("failed migration counted: %d", got)
	}
}

// TestRebalanceIdlePassIsNoOp: a rebalance pass over an interval with zero
// arrivals (and a fully decayed forecast) moves nothing — the pass bails
// before touching the per-shard load profile.
func TestRebalanceIdlePassIsNoOp(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, &RebalanceOptions{Interval: 1 << 30, Threshold: 1.2, MaxMoves: 1, Alpha: 1})
	defer d.Close()
	before := d.Migrations()
	d.rb.rebalance()
	if got := d.Migrations(); got != before {
		t.Fatalf("idle rebalance pass migrated tiles: %d -> %d", before, got)
	}
}

// TestRebalanceBelowThresholdIsNoOp: with traffic recorded but the heaviest
// shard under Threshold×mean, the pass computes the load profile and bails
// without migrating.
func TestRebalanceBelowThresholdIsNoOp(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d := rebalanced(t, in, 4, &RebalanceOptions{Interval: 1 << 30, Threshold: 1e9, MaxMoves: 1, Alpha: 1})
	defer d.Close()
	d.rb.tileLoad[d.part.OwnerTiles()[0]].n.Add(1)
	before := d.Migrations()
	d.rb.rebalance()
	if got := d.Migrations(); got != before {
		t.Fatalf("below-threshold rebalance pass migrated tiles: %d -> %d", before, got)
	}
}
