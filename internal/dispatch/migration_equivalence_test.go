package dispatch

import (
	"errors"
	"testing"

	"ltc/internal/core"
	"ltc/internal/events"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// checkMigrationEquivalence is the migration equivalence net: the same
// skewed stream is fed to a migration-free dispatcher and to one whose
// tiles are forcibly migrated at deterministic points mid-stream, both
// driven until every task completes. Migration may legitimately change
// which worker completes which task (shard composition changes candidate
// sets), so the net checks the conservation laws rather than byte
// equality:
//
//   - completion set: both runs complete exactly the full task set
//   - exactly-once: across all receipts each task completes at most once,
//     and the receipt-observed completion set equals TaskStatuses
//   - credit conservation: the engine accumulators (Credits) match the
//     merged-arrangement rebuild within float-summation noise
//   - event conservation: per subscriber, received events have strictly
//     increasing Seq and the sum of gaps equals Dropped(); a keep-up
//     subscriber folds to exactly one TaskCompleted per completed task and
//     one TileMigrated per migration
//   - progress/imbalance coherence: Progress totals match the instance and
//     Imbalance stays ≥ 1
func checkMigrationEquivalence(t *testing.T, in *model.Instance, factory core.OnlineFactory, shards int, stride, sel int) {
	t.Helper()
	base, err := New(in, shards, factory, Options{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	mig, err := New(in, shards, factory, Options{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mig.part.Rebalanceable() {
		t.Skip("degenerate draw: partition collapsed to one shard")
	}
	owners := mig.part.OwnerTiles()

	// A keep-up subscriber (conservation fold) and a tiny one (drop
	// accounting) ride along on the migrating run.
	big := mig.Subscribe(1 << 17)
	tiny := mig.Subscribe(1)

	completedByReceipt := make(map[model.TaskID]int)
	migrations := 0
	const batch = 33
	feedRound := func(d *Dispatcher, round int, migrate bool) bool {
		for i := 0; i < len(in.Workers); i += batch {
			j := min(i+batch, len(in.Workers))
			ws := make([]model.Worker, j-i)
			for k, w := range in.Workers[i:j] {
				w.Index = round*len(in.Workers) + i + k + 1
				ws[k] = w
			}
			rs, err := d.CheckInBatch(ws)
			if err != nil && !errors.Is(err, ErrDone) {
				t.Fatal(err)
			}
			if migrate {
				for _, r := range rs {
					for _, g := range r.Assignments {
						if g.Completed {
							completedByReceipt[g.Task]++
						}
					}
				}
				if (i/batch)%stride == 0 {
					tile := owners[(round*37+i/batch+sel)%len(owners)]
					from := mig.part.TileShard(tile)
					// Offset in [1, n): the target is always a different shard.
					n := mig.NumShards()
					to := (from + 1 + sel%(n-1)) % n
					if err := mig.MigrateTile(tile, to); err != nil {
						t.Fatal(err)
					}
					migrations++
				}
			}
			if d.Done() {
				return true
			}
		}
		return d.Done()
	}
	const maxRounds = 60
	baseDone, migDone := false, false
	for r := 0; r < maxRounds && !(baseDone && migDone); r++ {
		if !baseDone {
			baseDone = feedRound(base, r, false)
		}
		if !migDone {
			migDone = feedRound(mig, r, true)
		}
	}
	if !baseDone || !migDone {
		t.Skip("stream too weak to complete the instance within the round cap")
	}

	// Completion set: both runs completed exactly the full task set.
	baseStatuses, migStatuses := base.TaskStatuses(), mig.TaskStatuses()
	if len(baseStatuses) != len(in.Tasks) || len(migStatuses) != len(in.Tasks) {
		t.Fatalf("status counts %d/%d, want %d", len(baseStatuses), len(migStatuses), len(in.Tasks))
	}
	for i := range migStatuses {
		if !migStatuses[i].Completed || !baseStatuses[i].Completed {
			t.Fatalf("task %d: migrated completed=%v, base completed=%v — completion sets must both be the full task set",
				i, migStatuses[i].Completed, baseStatuses[i].Completed)
		}
	}
	// Exactly-once: receipts observed each completion exactly once.
	if len(completedByReceipt) != len(in.Tasks) {
		t.Fatalf("receipts observed %d completions, want %d", len(completedByReceipt), len(in.Tasks))
	}
	for id, n := range completedByReceipt {
		if n != 1 {
			t.Fatalf("task %d completed %d times in receipts", id, n)
		}
	}
	if got := mig.Migrations(); got != migrations {
		t.Fatalf("Migrations() = %d, observed %d", got, migrations)
	}

	// Credit conservation across the two views of the migrating run.
	credits := mig.Credits(nil)
	merged := mig.Arrangement().Accumulated
	for i := range credits {
		if credits[i] != merged[i] {
			t.Fatalf("task %d credit: engines %v, merged %v", i, credits[i], merged[i])
		}
	}
	if imb := mig.Imbalance(); imb < 1 {
		t.Fatalf("imbalance %v < 1", imb)
	}
	resolved, total := mig.Progress()
	if resolved != len(in.Tasks) || total != len(in.Tasks) {
		t.Fatalf("progress %d/%d, want %d/%d", resolved, total, len(in.Tasks), len(in.Tasks))
	}

	// Event conservation: the keep-up subscriber folds to exactly one
	// completion per task and one migration event per migration; the tiny
	// subscriber's gaps equal its drop counter.
	big.Close()
	tiny.Close()
	var lastSeq uint64
	eventCompleted := make(map[model.TaskID]int)
	eventMigrations := 0
	for e := range big.Events() {
		if e.Seq <= lastSeq {
			t.Fatalf("big subscriber seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case events.TaskCompleted:
			eventCompleted[e.Task]++
		case events.TileMigrated:
			eventMigrations++
			if e.Tile < 0 || e.FromShard == e.ToShard {
				t.Fatalf("malformed TileMigrated %+v", e)
			}
		}
	}
	if big.Dropped() != 0 {
		t.Fatalf("keep-up subscriber dropped %d events", big.Dropped())
	}
	if eventMigrations != migrations {
		t.Fatalf("%d TileMigrated events, want %d", eventMigrations, migrations)
	}
	if len(eventCompleted) != len(in.Tasks) {
		t.Fatalf("events cover %d completions, want %d", len(eventCompleted), len(in.Tasks))
	}
	for id, n := range eventCompleted {
		if n != 1 {
			t.Fatalf("task %d emitted %d TaskCompleted events", id, n)
		}
	}
	var gaps, received, last uint64
	for e := range tiny.Events() {
		if e.Seq <= last {
			t.Fatalf("tiny subscriber seq not increasing: %d after %d", e.Seq, last)
		}
		gaps += e.Seq - last - 1
		last = e.Seq
		received++
	}
	gaps += lastSeq - last // both subscribers saw the same final bus seq
	if gaps != tiny.Dropped() {
		t.Fatalf("tiny subscriber gaps %d != dropped %d", gaps, tiny.Dropped())
	}
	if received+tiny.Dropped() != lastSeq {
		t.Fatalf("tiny subscriber received %d + dropped %d != published %d", received, tiny.Dropped(), lastSeq)
	}
}

// migrationWorkload derives a small skewed instance from a fuzz seed.
func migrationWorkload(t *testing.T, seed uint64) *model.Instance {
	t.Helper()
	cfg := workload.Default().Scale(0.01 + float64(seed%4)*0.004)
	cfg.Seed = seed%100000 + 1
	s, err := workload.NewScenario(workload.ScenarioHotspot, cfg)
	if err != nil {
		t.Skip("degenerate scenario draw")
	}
	in, err := s.Generate()
	if err != nil {
		t.Skip("degenerate generator draw")
	}
	return in
}

// TestMigrationEquivalenceSeeds runs the fuzz corpus deterministically in
// the regular test suite.
func TestMigrationEquivalenceSeeds(t *testing.T) {
	for _, tc := range []struct {
		name        string
		seed        uint64
		shards      int
		stride, sel int
	}{
		{name: "laf-4shard", seed: 8, shards: 4, stride: 2, sel: 1},
		{name: "aam-8shard", seed: 21, shards: 8, stride: 3, sel: 5},
		{name: "laf-3shard", seed: 1234, shards: 3, stride: 1, sel: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := lafFactory
			if tc.seed%2 == 1 {
				factory = aamFactory
			}
			checkMigrationEquivalence(t, migrationWorkload(t, tc.seed), factory, tc.shards, tc.stride, tc.sel)
		})
	}
}

// FuzzMigrationEquivalence exposes the migration net to go fuzz: arbitrary
// workload seeds, shard counts and migration schedules must never violate
// the conservation laws above.
func FuzzMigrationEquivalence(f *testing.F) {
	f.Add(uint64(7), uint8(4), uint8(2), uint8(1))
	f.Add(uint64(21), uint8(8), uint8(3), uint8(5))
	f.Add(uint64(1234), uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, rawShards, rawStride, rawSel uint8) {
		shards := int(rawShards)%7 + 2
		stride := int(rawStride)%4 + 1
		sel := int(rawSel)
		factory := lafFactory
		if seed%2 == 1 {
			factory = aamFactory
		}
		checkMigrationEquivalence(t, migrationWorkload(t, seed), factory, shards, stride, sel)
	})
}
