package ltc

import (
	"errors"
	"reflect"
	"testing"
)

// TestWithRebalancePublicSurface drives a skewed stream through a platform
// with adaptive live re-sharding on: WithRebalance implies the balanced
// layout, migrations surface through Migrations() and the per-shard
// MigratedIn/MigratedOut accounts, and the run still resolves exactly like
// a static one (full completion, coherent progress).
func TestWithRebalancePublicSurface(t *testing.T) {
	cfg := DefaultWorkload().Scale(0.05)
	cfg.Seed = 42
	sc, err := NewScenario(ScenarioHotspot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := NewPlatform(in, LAF, WithShards(8),
		WithRebalance(RebalanceOptions{Interval: 128, Threshold: 1.0, MaxMoves: 2, Alpha: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !plat.Balanced() {
		t.Fatal("WithRebalance did not imply the balanced layout")
	}
	if !plat.Rebalancing() {
		t.Skipf("layout not rebalanceable at %d effective shards", plat.Shards())
	}

	// Replay the stream with fresh indices each round until every task
	// completes; the hotspot skew gives the rebalancer load to move.
	const maxRounds = 40
	for r := 0; r < maxRounds && !plat.Done(); r++ {
		ws := make([]Worker, len(in.Workers))
		for i, w := range in.Workers {
			w.Index = r*len(in.Workers) + i + 1
			ws[i] = w
		}
		if _, err := plat.CheckInBatch(ws); err != nil && !errors.Is(err, ErrPlatformDone) {
			t.Fatal(err)
		}
	}
	if err := plat.Close(); err != nil {
		t.Fatal(err)
	}
	if !plat.Done() {
		t.Skip("stream too weak to complete the instance within the round cap")
	}
	resolved, total := plat.Progress()
	if resolved != total || total != len(in.Tasks) {
		t.Fatalf("progress %d/%d, want %d/%d", resolved, total, len(in.Tasks), len(in.Tasks))
	}
	if plat.Migrations() < 0 {
		t.Fatalf("Migrations() = %d", plat.Migrations())
	}
	var in_, out int
	for _, s := range plat.ShardStats() {
		in_ += s.MigratedIn
		out += s.MigratedOut
	}
	if in_ != out {
		t.Fatalf("migrated-task accounts disagree: %d in, %d out", in_, out)
	}
	if plat.Migrations() > 0 && plat.Imbalance() < 1 {
		t.Fatalf("imbalance %v < 1", plat.Imbalance())
	}
}

// TestWithRebalanceValidation: bad knobs fail construction, and a
// single-shard platform accepts WithRebalance but reports it inert.
func TestWithRebalanceValidation(t *testing.T) {
	in := tinyInstance(t)
	if _, err := NewPlatform(in, LAF, WithShards(2), WithRebalance(RebalanceOptions{Interval: -1})); err == nil {
		t.Fatal("negative rebalance interval accepted")
	}
	plat, err := NewPlatform(in, LAF, WithShards(1), WithRebalance())
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Close()
	if plat.Rebalancing() {
		t.Fatal("single-shard platform claims to rebalance")
	}
	if plat.Migrations() != 0 {
		t.Fatalf("Migrations() = %d on an inert platform", plat.Migrations())
	}
}

// TestChurnLiveLoadSample pins the churn-layout fix: a balanced replay of a
// plan with late posts packs its layout against the live arrival prefix of
// the worker stream — not the default full-stream oracle, which under churn
// anticipates traffic aimed at tasks that don't exist at layout time. The
// pin is deterministic: the implicit replay must equal one given the prefix
// profile explicitly.
func TestChurnLiveLoadSample(t *testing.T) {
	base := DefaultWorkload().Scale(0.02)
	base.Seed = 7
	cw, err := DefaultChurn(base).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if cw.PostedLate() == 0 {
		t.Fatal("churn plan has no late posts; the fixture needs them")
	}

	rep1, err := ReplayChurn(cw, LAF, WithShards(4), WithBalancedShards())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := ReplayChurn(cw, LAF, WithShards(4), WithBalancedShards())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("balanced churn replay is not deterministic")
	}
	// Passing the live prefix explicitly must reproduce the implicit run
	// exactly: that is the option ReplayChurn appends.
	rep3, err := ReplayChurn(cw, LAF, WithShards(4), WithBalancedShards(), WithLoadPrefix(churnLoadSamplePrefix))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatal("implicit churn replay differs from the explicit live-prefix profile")
	}

	// The rebalancing variant of the same replay runs clean end to end.
	if _, err := ReplayChurn(cw, LAF, WithShards(4), WithRebalance(RebalanceOptions{Interval: 64, Threshold: 1.0, Alpha: 1})); err != nil {
		t.Fatal(err)
	}
}

// TestWithLoadPrefix pins the public causal-profile option: WithLoadPrefix(n)
// implies the balanced layout and packs it from exactly the first n worker
// locations — the run must reproduce a platform laid out from an instance
// that knows only those n workers and is then fed the full stream — while
// out-of-range prefixes fall back to the default full-stream sampling.
func TestWithLoadPrefix(t *testing.T) {
	cfg := DefaultWorkload().Scale(0.02)
	cfg.Seed = 11
	sc, err := NewScenario(ScenarioRushHour, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.Workers) / 8
	run := func(layout *Instance, opts ...Option) ([]ShardStats, int) {
		t.Helper()
		plat, err := NewPlatform(layout, LAF, append([]Option{WithShards(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer plat.Close()
		if !plat.Balanced() {
			t.Fatal("option did not imply the balanced layout")
		}
		for _, w := range in.Workers {
			if plat.Done() {
				break
			}
			if _, err := plat.CheckIn(w); err != nil && !errors.Is(err, ErrPlatformDone) {
				t.Fatal(err)
			}
		}
		return plat.ShardStats(), plat.Latency()
	}

	prefixOnly := *in
	prefixOnly.Workers = in.Workers[:n]
	gotStats, gotLat := run(in, WithLoadPrefix(n))
	wantStats, wantLat := run(&prefixOnly, WithBalancedShards())
	if gotLat != wantLat || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("WithLoadPrefix(%d) run differs from the prefix-only layout: latency %d vs %d", n, gotLat, wantLat)
	}

	// n ≤ 0 and n beyond the stream keep the default full-stream sample.
	defStats, defLat := run(in, WithBalancedShards())
	for _, bad := range []int{0, -3, len(in.Workers), len(in.Workers) + 7} {
		s, l := run(in, WithLoadPrefix(bad))
		if l != defLat || !reflect.DeepEqual(s, defStats) {
			t.Fatalf("WithLoadPrefix(%d) did not fall back to the default profile", bad)
		}
	}
}
