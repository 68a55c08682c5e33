package dispatch

import (
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// hotspotInstance is a skewed workload for the balanced-layout tests.
func hotspotInstance(t testing.TB, scale float64) *model.Instance {
	t.Helper()
	cfg := workload.Default().Scale(scale)
	cfg.Seed = 21
	s, err := workload.NewScenario(workload.ScenarioHotspot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBalancedSpreadsHotspotLoad: on a hotspot instance the balanced
// layout's busiest shard must carry a far smaller share of the routed
// check-ins than fixed striping's.
func TestBalancedSpreadsHotspotLoad(t *testing.T) {
	in := hotspotInstance(t, 0.05)
	run := func(opts ...Options) *Dispatcher {
		d, err := New(in, 8, aamFactory, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if d.Imbalance() != 1 {
			t.Fatalf("imbalance before any check-in = %v, want 1", d.Imbalance())
		}
		for _, w := range in.Workers {
			if _, err := d.CheckIn(w); err != nil {
				break // platform completed
			}
		}
		return d
	}
	striped := run()
	balanced := run(Options{Balanced: true})
	if striped.Balanced() || !balanced.Balanced() {
		t.Fatal("Balanced() flags wrong")
	}
	si, bi := striped.Imbalance(), balanced.Imbalance()
	t.Logf("hotspot imbalance: striped %.2f, balanced %.2f (shards %d/%d)",
		si, bi, striped.NumShards(), balanced.NumShards())
	if bi >= si {
		t.Fatalf("balanced imbalance %.2f not below striped %.2f", bi, si)
	}
	if bi > 2.5 {
		t.Fatalf("balanced imbalance %.2f, want ≤ 2.5", bi)
	}
	// The imbalance is max(Workers)·shards/sum(Workers) over ShardStats.
	stats := balanced.ShardStats()
	maxW, sumW := 0, 0
	for _, s := range stats {
		sumW += s.Workers
		if s.Workers > maxW {
			maxW = s.Workers
		}
		if s.QueueDepth != 0 {
			t.Fatalf("sync-only run reports queue depth %d", s.QueueDepth)
		}
	}
	if want := float64(maxW) * float64(len(stats)) / float64(sumW); bi != want {
		t.Fatalf("Imbalance() = %v, ShardStats says %v", bi, want)
	}
}

// TestBalancedLifecycleAndAsync: posts, retires and the async path work
// unchanged on a balanced layout, and posted tasks route to the same shard
// workers at that location route to.
func TestBalancedLifecycleAndAsync(t *testing.T) {
	in := hotspotInstance(t, 0.02)
	d, err := New(in, 6, aamFactory, Options{Balanced: true, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.PostTask(model.Task{Loc: in.Tasks[0].Loc})
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != len(in.Tasks) {
		t.Fatalf("posted ID %d, want %d", id, len(in.Tasks))
	}
	for _, w := range in.Workers {
		if err := d.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	if got, want := d.Arrived(), len(in.Workers); got != want {
		t.Fatalf("arrived %d, want %d", got, want)
	}
	if err := d.RetireTask(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	resolved, total := d.Progress()
	if total != len(in.Tasks)+1 || resolved == 0 {
		t.Fatalf("progress %d/%d", resolved, total)
	}
}

func TestLoadSample(t *testing.T) {
	if loadSample(nil) != nil {
		t.Fatal("empty worker set must yield a nil sample")
	}
	small := []model.Worker{{Index: 1, Loc: geo.Point{X: 1}}, {Index: 2, Loc: geo.Point{X: 2}}}
	if got := loadSample(small); len(got) != 2 || got[1].X != 2 {
		t.Fatalf("small sample = %v", got)
	}
	big := make([]model.Worker, 3*maxLoadSample)
	for i := range big {
		big[i] = model.Worker{Index: i + 1, Loc: geo.Point{X: float64(i)}}
	}
	got := loadSample(big)
	if len(got) > maxLoadSample {
		t.Fatalf("sample of %d exceeds cap %d", len(got), maxLoadSample)
	}
	if got[0].X != 0 || got[1].X != 3 {
		t.Fatalf("stride sampling broken: %v %v", got[0], got[1])
	}
}
