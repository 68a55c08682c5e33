package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/httpapi"
)

// runLoadgen drives a running ltcd end to end over one connection and
// audits the run. The target is len(urls) cluster nodes behind the routing
// client; a plain gateway (clustered false) is the one-node case of the
// same driver — a one-tile topology whose route is ≡ 0 — and differs only
// in skipping the topology handshake.
//
//   - It regenerates the target's workload from the same -scale/-seed
//     flags, derives the tile→node topology client-side and, on a cluster,
//     verifies every node serves it (fingerprint handshake in Sync) before
//     any traffic flows.
//   - The target must complete: if the worker stream runs out first, the
//     run fails at once with resolved/total and the workers fed.
//   - The (merged) SSE stream must carry exactly one task_completed per
//     task, no duplicates, and one platform_done per task-owning node;
//     per-node sequence gaps surface as hard errors.
//   - The folded stats must agree with the fed worker count.
//   - The wire must change nothing: an in-process reference platform per
//     node, built with the layout its /stats reports and fed the same
//     stream through the same routing and batch splitting, must reproduce
//     every node's latency and workers-seen count exactly.
//
// It prints workers/s and returns an error (non-zero exit) when any audit
// fails, which is what the CI smoke jobs key on.
func runLoadgen(out io.Writer, urls []string, clustered bool, scale float64, seed uint64, algoName string, batch int) error {
	if len(urls) == 0 || urls[0] == "" {
		return errors.New("loadgen needs -url (a running ltcd) or -cluster (its node URLs, in node-ID order)")
	}
	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed
	in, err := cfg.Generate()
	if err != nil {
		return err
	}
	topo, err := cluster.Build(in, len(urls))
	if err != nil {
		return err
	}
	// subs[n] is the instance node n serves; nil for nodes owning no tasks.
	subs := []*ltc.Instance{in}
	if clustered {
		split, err := cluster.SplitInstance(in, topo)
		if err != nil {
			return err
		}
		subs = make([]*ltc.Instance, topo.Nodes)
		for n, sub := range split.Subs {
			if sub != nil {
				subs[n] = sub.In
			}
		}
	}
	cc, err := httpapi.NewClusterClient(urls, topo)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if clustered {
		syncCtx, cancelSync := context.WithTimeout(ctx, 30*time.Second)
		defer cancelSync()
		if _, err := cc.Sync(syncCtx); err != nil {
			return fmt.Errorf("cluster sync: %w", err)
		}
	}
	pre, err := cc.Stats()
	if err != nil {
		return fmt.Errorf("ltcd unreachable: %w", err)
	}
	if pre.Tasks != len(in.Tasks) {
		return fmt.Errorf("ltcd serves %d tasks, local generation has %d — mismatched -scale/-seed?", pre.Tasks, len(in.Tasks))
	}
	if pre.WorkersSeen != 0 {
		return fmt.Errorf("ltcd already saw %d workers — loadgen needs a fresh boot", pre.WorkersSeen)
	}
	// Default the in-process replay to whatever the target actually runs;
	// -algos only overrides for deliberate mismatch experiments.
	taskNodes := 0
	algo := ltc.Algorithm(algoName)
	for n, sub := range subs {
		if sub == nil {
			continue
		}
		taskNodes++
		if algoName == "" {
			algo = ltc.Algorithm(pre.Nodes[n].Algo)
		}
	}
	fmt.Fprintf(out, "loadgen: %d tasks / %d workers across %d nodes (%d task-owning; %s, batch=%d)\n",
		len(in.Tasks), len(in.Workers), len(urls), taskNodes, algo, batch)

	// Audit the merged stream beside the feed. Every node replays its event
	// log from the first event, so opening it after Sync loses nothing, and
	// the merge turns a per-node sequence gap into an error.
	events := cc.OpenClusterEvents(ctx)
	defer events.Close()
	audited := make(chan eventAudit, 1)
	go func() { audited <- auditEvents(events, len(in.Tasks), taskNodes) }()

	// Feed the stream through the routing client. Completed nodes keep
	// bouncing per-call traffic exactly like a completed gateway, so the
	// feed stops only once every task-owning node has completed.
	wire := make([]httpapi.Worker, len(in.Workers))
	for i, w := range in.Workers {
		wire[i] = httpapi.FromWorker(w)
	}
	step := max(batch, 1)
	fed := 0
	start := time.Now()
	for i := 0; i < len(wire) && !cc.Complete(); i += step {
		if batch > 1 {
			recs, _, err := cc.CheckInBatch(wire[i:min(i+step, len(wire))])
			if err != nil {
				return err
			}
			fed += len(recs)
		} else {
			if _, err := cc.CheckIn(wire[i]); err != nil {
				return err
			}
			fed++
		}
	}
	elapsed := time.Since(start)

	// Poll before waiting on the stream: an exhausted worker stream never
	// publishes platform_done, and must not be reported as an SSE timeout.
	st, err := cc.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fed %d workers in %v (%.0f workers/s over the wire)\n",
		fed, elapsed.Round(time.Millisecond), float64(fed)/elapsed.Seconds())
	if !st.Done || st.Resolved != st.Total || st.Total != len(in.Tasks) {
		return fmt.Errorf("ltcd incomplete: %d/%d tasks resolved (want %d) after %d of %d workers fed",
			st.Resolved, st.Total, len(in.Tasks), fed, len(in.Workers))
	}
	var au eventAudit
	select {
	case au = <-audited:
		if au.err != nil {
			return fmt.Errorf("event stream: %w", au.err)
		}
	case <-time.After(30 * time.Second):
		return errors.New("ltcd is done but the event stream never delivered every completion and platform_done")
	}
	fmt.Fprintf(out, "ltcd: latency=%d workers_seen=%d resolved=%d/%d done=%v (%d events)\n",
		st.Latency, st.WorkersSeen, st.Resolved, st.Total, st.Done, au.events)
	if len(au.completions) != len(in.Tasks) || au.dupes > 0 || au.outOfRange > 0 || au.platformDone != taskNodes {
		return fmt.Errorf("event audit failed: %d/%d distinct completions, %d duplicates, %d out-of-range IDs, %d/%d platform_done",
			len(au.completions), len(in.Tasks), au.dupes, au.outOfRange, au.platformDone, taskNodes)
	}
	if fed != st.WorkersSeen {
		return fmt.Errorf("summed workers_seen %d != %d workers fed over the wire", st.WorkersSeen, fed)
	}
	fmt.Fprintf(out, "events: %d task_completed (all distinct) + %d platform_done in %d events — exactly-once holds\n",
		len(au.completions), au.platformDone, au.events)

	if err := replayReference(out, in, topo, subs, st, algo, seed, batch); err != nil {
		return err
	}
	fmt.Fprintln(out, "loadgen: PASS")
	return nil
}

// eventAudit is what one subscriber saw of a run.
type eventAudit struct {
	completions                             map[int]int // task ID → task_completed count
	dupes, outOfRange, platformDone, events int
	err                                     error
}

// auditEvents reads the stream until it has seen every task complete and
// wantDone platform_done events — one per task-owning node; another shard
// can publish a completion after the platform_done transition, so both are
// awaited — or until the stream ends.
func auditEvents(events *httpapi.ClusterStream, tasks, wantDone int) eventAudit {
	au := eventAudit{completions: make(map[int]int)}
	for au.platformDone < wantDone || len(au.completions) < tasks {
		e, err := events.Next()
		if err != nil {
			if err != io.EOF {
				au.err = err
			}
			break
		}
		au.events++
		switch e.Kind {
		case "task_completed":
			if e.Task < 0 || e.Task >= tasks {
				au.outOfRange++
			}
			au.completions[e.Task]++
			if au.completions[e.Task] > 1 {
				au.dupes++
			}
		case "platform_done":
			au.platformDone++
		}
	}
	return au
}

// replayReference rebuilds every task-owning node as an in-process platform
// with the layout its /stats reports and feeds it the same worker stream
// through the same routing (per-call, or batch chunks split into maximal
// same-node runs exactly as ClusterClient.CheckInBatch splits them). The
// wire must change nothing: per-node latency and workers-seen, and the
// latency fold, must match the polled stats bit for bit.
func replayReference(out io.Writer, in *ltc.Instance, topo *cluster.Topology, subs []*ltc.Instance,
	st httpapi.ClusterStats, algo ltc.Algorithm, seed uint64, batch int) error {
	refs := make([]*ltc.Platform, len(subs))
	for n, sub := range subs {
		if sub == nil {
			continue
		}
		// Mirror the node's spatial grid by replaying its REQUESTED shard
		// count — the effective count can be lower (collapsed empty tiles)
		// and would build a different grid if requested directly.
		ns := st.Nodes[n]
		opts := []ltc.Option{ltc.WithShards(ns.RequestedShards), ltc.WithSeed(seed)}
		if ns.Balanced {
			opts = append(opts, ltc.WithBalancedShards())
		}
		if ns.Rebalanced {
			opts = append(opts, ltc.WithRebalance())
		}
		ref, err := ltc.NewPlatform(sub, algo, opts...)
		if err != nil {
			return err
		}
		defer ref.Close()
		refs[n] = ref
	}
	refsDone := func() bool {
		for _, ref := range refs {
			if ref != nil && !ref.Done() {
				return false
			}
		}
		return true
	}
	// Routing uses the static topology directly: the client's live table
	// never healed (Sync verified the fingerprints), so both route
	// identically. Only tiles with owners receive traffic, hence every
	// routed-to node has a platform.
	step := max(batch, 1)
	for i := 0; i < len(in.Workers) && !refsDone(); i += step {
		chunk := in.Workers[i:min(i+step, len(in.Workers))]
		for s := 0; s < len(chunk); {
			n := topo.NodeFor(chunk[s].Loc)
			e := s + 1
			for e < len(chunk) && topo.NodeFor(chunk[e].Loc) == n {
				e++
			}
			var err error
			switch {
			case batch <= 1: // a completed node bounces, and counts, per-call traffic
				_, err = refs[n].CheckIn(chunk[s])
			case !refs[n].Done(): // ClusterClient.CheckInBatch skips completed nodes
				_, err = refs[n].CheckInBatch(chunk[s:e])
			}
			if err != nil && !errors.Is(err, ltc.ErrPlatformDone) {
				return err
			}
			s = e
		}
	}
	latency := 0
	for n, ref := range refs {
		if ref == nil {
			continue
		}
		ns := st.Nodes[n]
		if !ref.Done() {
			return fmt.Errorf("reference replay: node %d did not complete", n)
		}
		if ref.Latency() != ns.Latency {
			return fmt.Errorf("node %d: HTTP-fed latency %d != in-process latency %d", n, ns.Latency, ref.Latency())
		}
		if ref.WorkersSeen() != ns.WorkersSeen {
			return fmt.Errorf("node %d: HTTP-fed workers_seen %d != in-process %d", n, ns.WorkersSeen, ref.WorkersSeen())
		}
		latency = max(latency, ref.Latency())
	}
	if latency != st.Latency {
		return fmt.Errorf("latency fold %d != in-process max %d", st.Latency, latency)
	}
	fmt.Fprintf(out, "in-process replay: per-node latency and workers_seen match; latency=%d — the wire changed nothing\n", latency)
	return nil
}
