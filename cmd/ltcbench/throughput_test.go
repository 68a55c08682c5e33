package main

import (
	"errors"
	"testing"
	"time"
)

// allocSink keeps the per-op allocations of the measured closure from being
// optimized away.
var allocSink []byte

// TestPassMetricsBracketsFeedOnly pins the corrected throughput accounting:
// the clock and allocation counters bracket exactly the measured feed call,
// so work done around it — platform construction, drainer startup, pass
// bookkeeping — is never charged to the hot path. Bracketing the whole
// pass loop inflates allocs/op by the per-run construction cost; this test
// fails if that regresses.
func TestPassMetricsBracketsFeedOnly(t *testing.T) {
	var pm passMetrics

	// Allocate heavily OUTSIDE measure: the construction-cost stand-in.
	waste := make([][]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		waste = append(waste, make([]byte, 512))
	}

	// An allocation-free feed body must report a flat 0 allocs/op no
	// matter how much was allocated around it.
	fed, err := pm.measure(func() (int, error) { return 1000, nil })
	if err != nil || fed != 1000 {
		t.Fatalf("measure = (%d, %v), want (1000, nil)", fed, err)
	}
	_ = waste
	if pm.checkins != 1000 {
		t.Fatalf("checkins = %d, want 1000", pm.checkins)
	}
	if got := pm.allocsPerOp(); got != 0 {
		t.Fatalf("allocation-free feed charged %.2f allocs/op — work outside the feed leaked into the bracket", got)
	}
	if pm.elapsed <= 0 {
		t.Fatal("no elapsed time recorded for the feed")
	}

	// A feed that demonstrably allocates per op is charged for it.
	var pm2 passMetrics
	if _, err := pm2.measure(func() (int, error) {
		for i := 0; i < 100; i++ {
			allocSink = make([]byte, 4096)
		}
		return 100, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := pm2.allocsPerOp(); got < 1 {
		t.Fatalf("allocating feed reported %.2f allocs/op, want ≥ 1", got)
	}
	if pm2.bytesPerOp() < 4096 {
		t.Fatalf("allocating feed reported %.0f bytes/op, want ≥ 4096", pm2.bytesPerOp())
	}

	// Errors pass through; the failed feed's cost still folds in.
	wantErr := errors.New("boom")
	var pm3 passMetrics
	if _, err := pm3.measure(func() (int, error) { return 7, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if pm3.checkins != 7 {
		t.Fatalf("checkins = %d, want 7", pm3.checkins)
	}

	// add folds passes; rate uses only measured feed time.
	agg := passMetrics{checkins: 500, elapsed: 250 * time.Millisecond}
	agg.add(passMetrics{checkins: 500, elapsed: 250 * time.Millisecond, mallocs: 400, bytes: 800})
	if got := agg.rate(); got < 1990 || got > 2010 {
		t.Fatalf("rate = %.1f workers/s, want ~2000", got)
	}
	// 400 allocations over 1000 ops truncate to 0 — testing.B's convention,
	// so amortized costs (arena blocks, slice regrowth) read as flat zero.
	if got := agg.allocsPerOp(); got != 0 {
		t.Fatalf("amortized allocs/op = %.2f, want truncated 0", got)
	}
}

// TestParseFeeders covers the -feeders flag: default single GOMAXPROCS
// entry, explicit lists, and rejection of non-positive counts.
func TestParseFeeders(t *testing.T) {
	def, err := parseFeeders("")
	if err != nil || len(def) != 1 || def[0] < 1 {
		t.Fatalf("parseFeeders(\"\") = %v, %v — want one GOMAXPROCS entry", def, err)
	}
	got, err := parseFeeders("1,2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseFeeders(\"1,2,4\") = %v, %v", got, err)
	}
	if _, err := parseFeeders("0"); err == nil {
		t.Fatal("parseFeeders(\"0\") accepted a non-positive count")
	}
}
