package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ltc"
)

// TestPassMetricsBracketsFeedOnly pins the throughput accounting: the clock
// brackets exactly the measured feed call, so work done around it —
// platform construction, pass bookkeeping — is never charged to the hot
// path.
func TestPassMetricsBracketsFeedOnly(t *testing.T) {
	var pm passMetrics

	// Slow work OUTSIDE measure: the construction-cost stand-in.
	time.Sleep(100 * time.Millisecond)
	pm.measure(func() int { return 1000 })
	if pm.checkins != 1000 {
		t.Fatalf("checkins = %d, want 1000", pm.checkins)
	}
	if pm.elapsed <= 0 {
		t.Fatal("no elapsed time recorded for the feed")
	}
	if pm.elapsed >= 100*time.Millisecond {
		t.Fatalf("elapsed = %v — work outside the feed leaked into the bracket", pm.elapsed)
	}

	// rate uses only measured feed time.
	pm = passMetrics{checkins: 1000, elapsed: 500 * time.Millisecond}
	if got := pm.rate(); got != 2000 {
		t.Fatalf("rate = %.1f workers/s, want 2000", got)
	}
	if got := (&passMetrics{checkins: 5}).rate(); got != 0 {
		t.Fatalf("rate with no measured time = %.1f, want 0", got)
	}
}

// TestSweepObjectiveMatchesSolve pins the sweep's objective column: fed
// from one feeder, the 1-shard per-call cell replays the sequential stream,
// so its latency is exactly the unsharded Solve latency, and 8 striped
// shards — each worker seeing only its own shard's tasks — are never
// better. The cells are time-bounded, so they run concurrently.
func TestSweepObjectiveMatchesSolve(t *testing.T) {
	const seed = 42
	cfg := ltc.DefaultWorkload().Scale(0.02)
	cfg.Seed = seed
	type job struct {
		kind string
		in   *ltc.Instance
		algo ltc.Algorithm
		want int // Solve's latency
	}
	var jobs []job
	for _, kind := range []string{"uniform", "hotspot", "rushhour"} {
		scn, err := ltc.NewScenario(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := scn.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []ltc.Algorithm{ltc.AAM, ltc.LAF, ltc.RandomAssign} {
			res, err := ltc.Solve(in, algo, ltc.WithSeed(seed))
			if err != nil && !errors.Is(err, ltc.ErrIncomplete) {
				t.Fatalf("%s/%s: Solve: %v", kind, algo, err)
			}
			jobs = append(jobs, job{kind, in, algo, res.Latency})
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		for _, shards := range []int{1, 8} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cell := throughputResult{Scenario: j.kind, Shards: shards}
				res, err := measureThroughput(j.in, j.algo, seed, cell, 1)
				switch {
				case err != nil:
					t.Errorf("%s/%s/%d shards: %v", j.kind, j.algo, shards, err)
				case res.Runs < 3:
					t.Errorf("%s/%s/%d shards: %d runs, want ≥ one per pass", j.kind, j.algo, shards, res.Runs)
				case shards == 1 && res.Latency != j.want:
					t.Errorf("%s/%s: 1-shard cell latency %d, Solve %d", j.kind, j.algo, res.Latency, j.want)
				case res.Latency < j.want:
					t.Errorf("%s/%s: %d striped shards beat Solve: %d < %d", j.kind, j.algo, shards, res.Latency, j.want)
				}
			}()
		}
	}
	wg.Wait()
}

// TestRunScenariosRows pins the sweep's row enumeration: one striped row at
// one shard; striped and balanced at every multi-shard count; and with
// -rebalance on a drift scenario, the presampled and rebalanced pair too.
// A non-drift scenario never gets the pair.
func TestRunScenariosRows(t *testing.T) {
	cases := []struct {
		scenario, shards string
		want             []string // "shards layout" per row, in order
	}{
		{"rushhour", "1,2", []string{
			"1 striped", "2 striped", "2 balanced", "2 presampled", "2 rebalanced",
		}},
		{"flashcrowd", "4", []string{"4 striped", "4 balanced", "4 presampled", "4 rebalanced"}},
		{"uniform", "1,2", []string{"1 striped", "2 striped", "2 balanced"}},
	}
	// Each runScenarios call measures its cells one after another; the
	// calls themselves are independent, so they run concurrently.
	outs := make([]bytes.Buffer, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runScenarios(&outs[i], c.scenario, c.shards, true, 0.02, 42, "")
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.scenario, errs[i])
		}
		var got []string
		for _, line := range strings.Split(outs[i].String(), "\n") {
			f := strings.Fields(line)
			if len(f) == 8 && f[0] == c.scenario {
				got = append(got, f[1]+" "+f[2])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s -shards %s -rebalance rows = %q, want %q\n%s", c.scenario, c.shards, got, c.want, outs[i].String())
		}
	}
}
