package main

import (
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/core"
	"ltc/internal/dispatch"
	"ltc/internal/events"
	"ltc/internal/model"
)

// Layer microbenchmarks: public functions of single layers that no
// front-door call of a pass crosses on its own — constructors, the
// lifecycle and migration calls, a bare bus, the merge fold — timed directly
// on scratch values built from the workload's inputs. They run once per
// traced run, before its passes.

const (
	buildReps   = 5   // constructor repetitions; the median is reported
	lifecycleN  = 256 // tasks posted, retired, inserted, removed
	migrateMax  = 32  // tiles migrated
	publishN    = 1 << 16
	foldN       = 1 << 18
	msPerSecond = 1e3
)

// medianMs times fn reps times and returns the median in milliseconds.
func medianMs(reps int, fn func()) float64 {
	vs := make([]float64, reps)
	for i := range vs {
		t0 := time.Now()
		fn()
		vs[i] = time.Since(t0).Seconds() * msPerSecond
	}
	return median(vs)
}

// layerBench returns the microbenchmark-backed per-layer metrics.
func layerBench(in *inputs) (map[string]float64, error) {
	spec, src := in.spec, in.in
	out := map[string]float64{}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	dopt := dispatchOptions(spec, src)
	popt := partitionOptions(dopt, src.Workers)
	var ci *model.CandidateIndex
	out["model.index_build_ms"] = medianMs(buildReps, func() { ci = model.NewCandidateIndex(src) })
	out["model.partition_build_ms"] = medianMs(buildReps, func() {
		_, err := model.PartitionInstanceOpts(src, spec.Shards, popt)
		note(err)
	})
	out["core.new_engine_ms"] = medianMs(buildReps, func() { core.NewEngine(src, ci, aamFactory) })
	out["dispatch.new_ms"] = medianMs(buildReps, func() {
		_, err := dispatch.New(src, spec.Shards, aamFactory, dopt)
		note(err)
	})
	out["ltc.new_platform_ms"] = medianMs(buildReps, func() {
		p, err := ltc.NewPlatform(src, ltc.AAM, platformOptions(spec, len(src.Workers))...)
		note(err)
		if p != nil {
			_ = p.Close() // always nil
		}
	})
	if spec.Nodes > 0 {
		var topo *cluster.Topology
		out["cluster.build_ms"] = medianMs(buildReps, func() {
			var err error
			topo, err = cluster.Build(src, spec.Nodes)
			note(err)
		})
		if topo != nil {
			out["cluster.split_ms"] = medianMs(buildReps, func() {
				_, err := cluster.SplitInstance(src, topo)
				note(err)
			})
		}
	}

	// Index updates: insert fresh tasks at existing locations, then remove
	// them again. Each is one copy-on-write snapshot.
	var ins, rem []float64
	base := ci.NumTasks()
	for k := 0; k < lifecycleN; k++ {
		t := model.Task{ID: model.TaskID(base + k), Loc: src.Tasks[k%len(src.Tasks)].Loc}
		t0 := time.Now()
		err := ci.Insert(t)
		ins = append(ins, float64(time.Since(t0).Nanoseconds())/1e3)
		note(err)
	}
	for k := 0; k < lifecycleN; k++ {
		t0 := time.Now()
		err := ci.Remove(model.TaskID(base + k))
		rem = append(rem, float64(time.Since(t0).Nanoseconds())/1e3)
		note(err)
	}
	out["model.index_insert_us"], out["model.index_remove_us"] = median(ins), median(rem)

	// Lifecycle and migration calls on a scratch dispatcher.
	d, err := dispatch.New(src, spec.Shards, aamFactory, dopt)
	note(err)
	if d != nil {
		var post, retire, migrate []float64
		ids := make([]model.TaskID, 0, lifecycleN)
		for k := 0; k < lifecycleN; k++ {
			loc := src.Tasks[k%len(src.Tasks)].Loc
			t0 := time.Now()
			id, err := d.PostTask(model.Task{Loc: loc})
			post = append(post, float64(time.Since(t0).Nanoseconds())/1e3)
			note(err)
			ids = append(ids, id)
		}
		for _, id := range ids {
			t0 := time.Now()
			err := d.RetireTask(id)
			retire = append(retire, float64(time.Since(t0).Nanoseconds())/1e3)
			note(err)
		}
		out["dispatch.post_task_us"], out["dispatch.retire_task_us"] = median(post), median(retire)
		// Migration needs the balanced layout's ownership structure. The
		// dispatcher keeps its partition to itself; an identical one, built
		// from the same inputs, names the movable tiles and their owners.
		if part, err := model.PartitionInstanceOpts(src, spec.Shards, popt); err == nil && part.Rebalanceable() {
			tiles := part.OwnerTiles()
			for k := 0; k < len(tiles) && k < migrateMax; k++ {
				to := (part.TileShard(tiles[k]) + 1) % part.NumShards()
				t0 := time.Now()
				err := d.MigrateTile(tiles[k], to)
				migrate = append(migrate, float64(time.Since(t0).Nanoseconds())/1e3)
				note(err)
			}
			out["dispatch.migrate_tile_us"] = median(migrate)
		}
		_ = d.Close() // always nil
	}

	// A bare bus, without and with one subscriber whose buffer never fills.
	bus := events.NewBus()
	e := events.Event{Kind: events.TaskCompleted, Task: 1, Worker: 1}
	t0 := time.Now()
	for i := 0; i < publishN; i++ {
		bus.Publish(e)
	}
	out["events.publish_ns"] = float64(time.Since(t0).Nanoseconds()) / publishN
	sub := bus.Subscribe(publishN)
	t0 = time.Now()
	for i := 0; i < publishN; i++ {
		bus.Publish(e)
	}
	out["events.publish_sub_ns"] = float64(time.Since(t0).Nanoseconds()) / publishN
	sub.Close()

	// The cluster stream's merge fold, three nodes round robin.
	m := events.NewStreamMerger(3)
	var seq [3]uint64
	t0 = time.Now()
	for i := 0; i < foldN; i++ {
		n := i % 3
		seq[n]++
		_, err := m.Fold(n, seq[n])
		note(err)
	}
	out["events.merge_fold_ns"] = float64(time.Since(t0).Nanoseconds()) / foldN

	out["loadgen.timer_ns"] = timerNs()
	return out, firstErr
}
