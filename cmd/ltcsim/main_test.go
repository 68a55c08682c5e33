package main

import (
	"bytes"
	"strings"
	"testing"

	"ltc"
)

// TestBuildInstance covers each instance source ltcsim accepts: the
// Table IV-shaped synthetic default, a named scenario at the same counts,
// a city trace, and the rejection of an unknown city.
func TestBuildInstance(t *testing.T) {
	syn, err := buildInstance("", "", 0, 60, 1500, 4, 0.14, 1)
	if err != nil {
		t.Fatalf("synthetic: %v", err)
	}
	if len(syn.Tasks) != 60 || len(syn.Workers) != 1500 || syn.K != 4 || syn.Epsilon != 0.14 {
		t.Fatalf("synthetic: %d tasks, %d workers, K=%d, ε=%.2f; want 60, 1500, 4, 0.14",
			len(syn.Tasks), len(syn.Workers), syn.K, syn.Epsilon)
	}

	hot, err := buildInstance("", ltc.ScenarioHotspot, 0, 60, 1500, 4, 0.14, 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if len(hot.Tasks) != 60 || len(hot.Workers) != 1500 || hot.K != 4 {
		t.Fatalf("scenario: %d tasks, %d workers, K=%d; want 60, 1500, 4", len(hot.Tasks), len(hot.Workers), hot.K)
	}
	if err := hot.Validate(); err != nil {
		t.Fatalf("scenario instance invalid: %v", err)
	}

	city, err := buildInstance("newyork", "", 0.005, 0, 0, 5, 0.12, 1)
	if err != nil {
		t.Fatalf("city: %v", err)
	}
	if len(city.Tasks) == 0 || len(city.Workers) == 0 || city.K != 5 || city.Epsilon != 0.12 {
		t.Fatalf("city: %d tasks, %d workers, K=%d, ε=%.2f; want a non-empty trace at K=5, ε=0.12",
			len(city.Tasks), len(city.Workers), city.K, city.Epsilon)
	}

	if _, err := buildInstance("atlantis", "", 0.005, 0, 0, 5, 0.12, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown city") {
		t.Fatalf("unknown city: err = %v, want an unknown-city error", err)
	}
}

// TestCheckFlags pins the up-front flag validation: sharding options only
// ride on -churn, -churn needs a synthetic workload, and -scenario and
// -city exclude each other.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name      string
		city      string
		scenario  string
		churn     float64
		shards    int
		balanced  bool
		rebalance bool
		want      string // substring of the error; "" = accepted
	}{
		{name: "default"},
		{name: "churn on shards", churn: 0.4, shards: 2, balanced: true, rebalance: true},
		{name: "scenario and city", city: "newyork", scenario: "hotspot", want: "mutually exclusive"},
		{name: "churn on a city", city: "newyork", churn: 0.4, want: "synthetic"},
		{name: "shards without churn", shards: 4, want: "ltcbench -exp scenarios"},
		{name: "balanced without churn", balanced: true, want: "-churn"},
		{name: "rebalance without churn", rebalance: true, want: "-churn"},
	}
	for _, c := range cases {
		err := checkFlags(c.city, c.scenario, c.churn, c.shards, c.balanced, c.rebalance)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestRunChurnBalancedShards replays a small dynamic-task workload on two
// balanced shards and checks the table: one row per online algorithm, with
// the shard count in the header.
func TestRunChurnBalancedShards(t *testing.T) {
	var out bytes.Buffer
	if err := runChurn(&out, 60, 1500, 6, 0.10, 1, 0.4, 500, 2, "", true, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "TTL 500, 2 shards") {
		t.Fatalf("header lacks the TTL and shard count:\n%s", got)
	}
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		if algo := ltc.Algorithm(f[0]); algo.IsOnline() {
			rows++
			if done, total, ok := strings.Cut(f[3], "/"); !ok || done == "0" || total != "60" {
				t.Errorf("%s: completed column %q, want k/60 with k > 0", algo, f[3])
			}
		}
	}
	if rows != 3 {
		t.Fatalf("%d online-algorithm rows, want 3:\n%s", rows, got)
	}
}
