package core

import (
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// modelCallsPerArrival feeds a Table IV-scale scenario's worker stream
// (seed 42), in order, to one AAM engine per shard of an n-shard layout —
// balanced by a load sample of every stride-th worker, as the dispatcher
// takes it, or striped — until every shard is done. It returns how many
// times the accuracy model was asked per arrival that ran a walk (one whose
// shard was not yet done), and per such arrival whose walk examined at least
// 7 hits, with the share of those.
func modelCallsPerArrival(t *testing.T, kind string, n int, balanced bool) (perArrival, perHot, hotShare float64) {
	t.Helper()
	cfg := workload.Default()
	cfg.Seed = 42
	scn, err := workload.NewScenario(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := scn.Generate()
	if err != nil {
		t.Fatal(err)
	}
	const maxLoadSample = 4096 // the dispatcher's
	var sample []geo.Point
	for i, stride := 0, (len(in.Workers)+maxLoadSample-1)/maxLoadSample; i < len(in.Workers); i += stride {
		sample = append(sample, in.Workers[i].Loc)
	}
	part, err := model.PartitionInstanceOpts(in, n, model.PartitionOptions{Balanced: balanced, LoadSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	engs, aams := make([]*Engine, part.NumShards()), make([]*AAM, part.NumShards())
	for i, sub := range part.Shards {
		engs[i] = NewEngine(sub.In, model.NewCandidateIndex(sub.In), func(in *model.Instance, ci *model.CandidateIndex) Online {
			aams[i] = NewAAM(in, ci)
			return aams[i]
		})
	}
	open := len(engs)
	arrivals, hot, calls, hotCalls := 0, 0, 0, 0
	for _, w := range in.Workers {
		if open == 0 {
			break
		}
		s := part.Locate(w.Loc)
		if engs[s].Done() {
			continue
		}
		h0, p0 := aams[s].QueryCounts()
		engs[s].Arrive(w)
		h, p := aams[s].QueryCounts()
		arrivals, calls = arrivals+1, calls+p-p0
		if h-h0 >= 7 {
			hot, hotCalls = hot+1, hotCalls+p-p0
		}
		if engs[s].Done() {
			open--
		}
	}
	return float64(calls) / float64(arrivals), float64(hotCalls) / float64(max(hot, 1)), float64(hot) / float64(arrivals)
}

// TestAAMModelCallsPerArrival pins how often AAM asks the accuracy model on
// the benchmark's two instance shapes, fed sequentially. On the hotspot
// instance over 8 balanced shards (the batch workload's layout) the need
// floor and the cell bound cut it from 8.12 per arrival (49.1 on the 16 % of
// arrivals that examine 7 or more hits) to 5.02 (30.0); it must stay at or
// below 5.1. On uniform Table IV over 8 striped shards (the per-call
// workloads' layout), where few walks narrow, it must stay at or below the
// 2.544 it read before either rule (2.532 with them).
func TestAAMModelCallsPerArrival(t *testing.T) {
	a, h, s := modelCallsPerArrival(t, workload.ScenarioHotspot, 8, true)
	t.Logf("hotspot, 8 balanced shards: %.3f model calls per arrival, %.2f on the %.1f %% that examine ≥ 7 hits", a, h, 100*s)
	if a > 5.1 {
		t.Errorf("hotspot: %.3f model calls per arrival, want ≤ 5.1", a)
	}
	a, h, s = modelCallsPerArrival(t, workload.ScenarioUniform, 8, false)
	t.Logf("uniform, 8 striped shards: %.3f model calls per arrival, %.2f on the %.1f %% that examine ≥ 7 hits", a, h, 100*s)
	if a > 2.544 {
		t.Errorf("uniform: %.4f model calls per arrival, want ≤ 2.544", a)
	}
}
