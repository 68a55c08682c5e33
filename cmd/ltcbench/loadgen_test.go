package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/httpapi"
)

// serveLtcd boots what `ltcd` serves for the given workload flags on
// httptest servers — one plain gateway, or the nodes of a cluster when
// nodes > 1 — and returns the base URLs in node-ID order.
func serveLtcd(t *testing.T, scale float64, seed uint64, nodes, shards int, balanced bool) []string {
	t.Helper()
	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	opts := []ltc.Option{ltc.WithShards(shards), ltc.WithSeed(seed)}
	if balanced {
		opts = append(opts, ltc.WithBalancedShards())
	}
	platform := func(in *ltc.Instance) *ltc.Platform {
		p, err := ltc.NewPlatform(in, ltc.AAM, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	if nodes == 1 {
		srv := httptest.NewServer(httpapi.NewHandler(platform(in), ltc.AAM, shards))
		t.Cleanup(srv.Close)
		return []string{srv.URL}
	}
	topo, err := cluster.Build(in, nodes)
	if err != nil {
		t.Fatal(err)
	}
	split, err := cluster.SplitInstance(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for n := 0; n < nodes; n++ {
		var p *ltc.Platform
		if sub := split.Subs[n]; sub != nil {
			p = platform(sub.In)
		}
		cs, err := httpapi.NewClusterServer(p, ltc.AAM, shards, topo, n, split)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cs.Close)
		srv := httptest.NewServer(cs.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	return urls
}

// TestLoadgen runs the one loadgen driver against every target shape it
// serves in CI — a plain gateway (the one-node, route-≡-0 case) under both
// shard layouts and a 3-node cluster, per-call and batched — and expects
// every audit to pass. The balanced rows pin the reference replay mirroring
// the gateway's layout: a striped replay of a balanced gateway reports a
// latency mismatch on a correct run. The exhausted row pins the immediate
// incomplete error: a balanced 2-shard gateway at scale 0.01 resolves 28/30
// tasks on its 400 workers, which used to surface as a 10 s SSE timeout.
func TestLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    float64
		nodes    int
		balanced bool
		wantErr  string
	}{
		{name: "plain-striped", scale: 0.02, nodes: 1},
		{name: "plain-balanced", scale: 0.02, nodes: 1, balanced: true},
		{name: "cluster3", scale: 0.02, nodes: 3},
		{name: "exhausted", scale: 0.01, nodes: 1, balanced: true, wantErr: "incomplete: 28/30 tasks resolved"},
	} {
		for _, batch := range []int{0, 64} {
			name := tc.name + "/percall"
			if batch > 0 {
				name = tc.name + "/batch64"
			}
			t.Run(name, func(t *testing.T) {
				const seed, shards = 42, 2
				urls := serveLtcd(t, tc.scale, seed, tc.nodes, shards, tc.balanced)
				var out strings.Builder
				start := time.Now()
				err := runLoadgen(&out, urls, tc.nodes > 1, tc.scale, seed, "", batch)
				if tc.wantErr == "" {
					if err != nil || !strings.Contains(out.String(), "loadgen: PASS") {
						t.Fatalf("err = %v, output:\n%s", err, out.String())
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if !strings.Contains(err.Error(), "400 of 400 workers fed") {
					t.Fatalf("err = %v, want the workers fed named", err)
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("incomplete run took %v to report, want < 1s", d)
				}
			})
		}
	}
}

// TestLoadgenNeedsTarget covers the flag check ahead of any network use.
func TestLoadgenNeedsTarget(t *testing.T) {
	if err := runLoadgen(io.Discard, []string{""}, false, 0.01, 42, "", 0); err == nil {
		t.Fatal("runLoadgen accepted an empty -url")
	}
}
