package main

// The benchmark's fixed vocabulary: six workloads, the end-to-end metrics a
// caller of the check-in stack sees, and the per-layer metrics that explain
// them. BENCHMARK.json at the repository root is the machine-readable copy
// the driver reads; TestManifestMatchesCatalog keeps the two in step. Later
// issues cite these names, so they never change meaning.

// Front-door modes a workload drives.
const (
	modePerCall     = "percall"      // ltc.Platform.CheckIn
	modeAsync       = "async"        // CheckInAsync + Flush
	modeBatch       = "batch"        // CheckInBatchInto
	modeDynamic     = "dynamic"      // CheckIn beside PostTask/RetireTask/migration
	modeWireBatch   = "wire-batch"   // httpapi.Client.CheckInBatch against one node
	modeWireCluster = "wire-cluster" // ClusterClient.CheckIn against three nodes
)

// feeders is the load shape every workload shares: two feeder goroutines
// (two HTTP connections on the wire workloads) and one event consumer.
const feeders = 2

// workloadSpec fixes one workload's inputs and front door.
type workloadSpec struct {
	Name     string
	Why      string
	Mode     string
	Scenario string  // internal/workload scenario kind
	Scale    float64 // factor on Table IV's default (3000 tasks / 40000 workers)
	Shards   int     // requested shards (per node on the cluster)
	Batch    int     // workers per front-door call
	Nodes    int     // cluster nodes, 0 off the cluster
	Balanced bool    // WithBalancedShards
	Churn    bool    // DefaultChurn + TTL, with WithRebalance
	// OpenLoopRate, when non-zero, paces latency passes at this many
	// check-ins per second regardless of replies; 0 is a closed loop.
	OpenLoopRate float64
}

const batchSize = 64

var workloads = []workloadSpec{
	{
		Name: "lib-percall-uniform", Mode: modePerCall, Scenario: "uniform", Scale: 1, Shards: 8, Batch: 1,
		Why: "Table IV default through Platform.CheckIn: per-call fixed costs (Locate, shard mutex, grant arena, publish) are the largest share; the control for every wire workload.",
	},
	{
		Name: "lib-async-uniform", Mode: modeAsync, Scenario: "uniform", Scale: 1, Shards: 8, Batch: 1,
		Why: "Same instance through CheckInAsync+Flush: the MPSC ring, parking and drainer runs carry the load, so throughput bought with deeper queues shows as event lag.",
	},
	{
		Name: "lib-batch-hotspot", Mode: modeBatch, Scenario: "hotspot", Scale: 1, Shards: 8, Batch: batchSize, Balanced: true,
		Why: "64-worker CheckInBatchInto on Zipf hotspots: CandidateIndex scans and the solver do most of the work while dispatch's per-call costs are amortised away.",
	},
	{
		Name: "lib-percall-dynamic", Mode: modeDynamic, Scenario: "rushhour", Scale: 1, Shards: 8, Batch: 1, Churn: true,
		Why: "CheckIn beside PostTask/RetireTask and live tile migration on drifting traffic: copy-on-write index updates and the migration handoff contend with the read path.",
	},
	{
		Name: "wire-batch", Mode: modeWireBatch, Scenario: "uniform", Scale: 0.25, Shards: 8, Batch: batchSize,
		Why: "One HTTP node, 64-worker /checkin/batch plus an SSE subscriber: JSON encode/decode of 5 KB requests and 10 KB responses dominates, transport is amortised.",
	},
	{
		Name: "wire-cluster", Mode: modeWireCluster, Scenario: "uniform", Scale: 0.25, Shards: 4, Batch: 1, Nodes: 3, OpenLoopRate: 12000,
		Why: "Three ClusterServer nodes, one request per worker, merged SSE stream: client routing, net/http transport, handlers, ID translation and the event log; the solver is a few percent.",
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression (0 on per-layer metrics, which have none). Moves
// names, for a per-layer metric, the end-to-end metric and workload where
// its effect is predicted to be largest, and where it should be nil.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics every workload reports with tracing off.
// lifecycle_p50_us is not among them: the driver requires every end-to-end
// metric to be non-zero on every workload, and only lib-percall-dynamic
// makes lifecycle calls, so it is reported per-layer (see perLayer).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "throughput_wps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_us_per_checkin", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "call_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "event_lag_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "ltc_latency_max", Unit: "arrivals", Better: lower, Bound: 0.15},
	{Name: "ltc_latency_mean", Unit: "arrivals", Better: lower, Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.10},
}

// perLayer lists the metrics every workload reports from the traced run; a
// layer a workload does not cross reads 0.
var perLayer = []metricDef{
	{Name: "lifecycle_p50_us", Unit: "us", Better: lower, Moves: "median PostTask/RetireTask call latency as the caller sees it; lib-percall-dynamic only"},

	{Name: "workload.generate_ms", Unit: "ms", Better: lower, Moves: "nothing in the program; sanity of the generator"},
	{Name: "workload.checkins_per_pass", Unit: "count", Better: lower, Moves: "nothing in the program; must repeat for a seed"},

	{Name: "model.locate_ns", Unit: "ns", Better: lower, Moves: "call_p50_us on lib-percall-uniform (small); nil on wire-*"},
	{Name: "model.candidates_ns", Unit: "ns", Better: lower, Moves: "throughput_wps, cpu_us_per_checkin on lib-batch-hotspot; nil on wire-cluster"},
	{Name: "model.candidates_per_query", Unit: "count", Better: lower, Moves: "model.candidates_ns on lib-batch-hotspot"},
	{Name: "model.candidate_use_ratio", Unit: "ratio", Better: higher, Moves: "grants per candidate scanned; wasted scans on lib-batch-hotspot"},
	{Name: "model.index_build_ms", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},
	{Name: "model.partition_build_ms", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},
	{Name: "model.index_insert_us", Unit: "us", Better: lower, Moves: "lifecycle_p50_us, throughput_wps on lib-percall-dynamic; nil elsewhere"},
	{Name: "model.index_remove_us", Unit: "us", Better: lower, Moves: "lifecycle_p50_us, throughput_wps on lib-percall-dynamic; nil elsewhere"},

	{Name: "core.arrive_ns", Unit: "ns", Better: lower, Moves: "throughput_wps on lib-batch-hotspot; nil on wire-*"},
	{Name: "core.arrive_self_ns", Unit: "ns", Better: lower, Moves: "throughput_wps on lib-batch-hotspot; nil on wire-*"},
	{Name: "core.grants_per_arrival", Unit: "count", Better: higher, Moves: "any change must show in ltc_latency_*"},
	{Name: "core.new_engine_ms", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},
	{Name: "core.completed_share", Unit: "ratio", Better: higher, Moves: "1 on static workloads; below 1 on lib-percall-dynamic means tasks expired"},

	{Name: "dispatch.checkin_ns", Unit: "ns", Better: lower, Moves: "throughput_wps, call_p50_us on lib-percall-uniform"},
	{Name: "dispatch.checkin_self_ns", Unit: "ns", Better: lower, Moves: "throughput_wps, call_p50_us on lib-percall-uniform; nil on lib-batch-hotspot"},
	{Name: "dispatch.batch_ns_per_worker", Unit: "ns", Better: lower, Moves: "throughput_wps on lib-batch-hotspot, wire-batch"},
	{Name: "dispatch.enqueue_ns", Unit: "ns", Better: lower, Moves: "throughput_wps, call_p50_us on lib-async-uniform"},
	{Name: "dispatch.flush_wait_us", Unit: "us", Better: lower, Moves: "throughput_wps, event_lag_p50_us on lib-async-uniform"},
	{Name: "dispatch.ring_depth_max", Unit: "count", Better: lower, Moves: "event_lag_p50_us on lib-async-uniform"},
	{Name: "dispatch.feeder_scaling", Unit: "ratio", Better: higher, Moves: "below 1 means lock or clock contention, not layer cost"},
	{Name: "dispatch.imbalance", Unit: "ratio", Better: lower, Moves: "throughput_wps on lib-batch-hotspot, lib-percall-dynamic"},
	{Name: "dispatch.post_task_us", Unit: "us", Better: lower, Moves: "lifecycle_p50_us, ltc_latency_mean on lib-percall-dynamic"},
	{Name: "dispatch.retire_task_us", Unit: "us", Better: lower, Moves: "lifecycle_p50_us on lib-percall-dynamic"},
	{Name: "dispatch.migrate_tile_us", Unit: "us", Better: lower, Moves: "call_p50_us tail, ltc_latency_mean on lib-percall-dynamic"},
	{Name: "dispatch.migrations", Unit: "count", Better: lower, Moves: "dispatch.imbalance on lib-percall-dynamic"},
	{Name: "dispatch.new_ms", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},

	{Name: "events.publish_ns", Unit: "ns", Better: lower, Moves: "nil: nobody subscribed is not a measured configuration"},
	{Name: "events.publish_sub_ns", Unit: "ns", Better: lower, Moves: "throughput_wps on lib-percall-uniform (small)"},
	{Name: "events.deliver_p50_us", Unit: "us", Better: lower, Moves: "event_lag_p50_us on lib-percall-uniform"},
	{Name: "events.deliver_p99_us", Unit: "us", Better: lower, Moves: "event-lag tail on lib-percall-uniform"},
	{Name: "events.dropped", Unit: "count", Better: lower, Moves: "failed; expect 0"},
	{Name: "events.merge_fold_ns", Unit: "ns", Better: lower, Moves: "event_lag_p50_us on wire-cluster (small)"},

	{Name: "httpapi.client_call_us", Unit: "us", Better: lower, Moves: "call_p50_us on wire-*"},
	{Name: "httpapi.client_codec_us", Unit: "us", Better: lower, Moves: "throughput_wps, cpu_us_per_checkin on wire-batch; nil on lib-*"},
	{Name: "httpapi.roundtrip_us", Unit: "us", Better: lower, Moves: "call_p50_us on wire-*"},
	{Name: "httpapi.transport_us", Unit: "us", Better: lower, Moves: "call_p50_us, throughput_wps on wire-cluster; nil on lib-*"},
	{Name: "httpapi.handler_us", Unit: "us", Better: lower, Moves: "call_p50_us on wire-*"},
	{Name: "httpapi.handler_self_us", Unit: "us", Better: lower, Moves: "throughput_wps, cpu_us_per_checkin on wire-batch; nil on lib-*"},
	{Name: "httpapi.batch_handler_us_per_worker", Unit: "us", Better: lower, Moves: "throughput_wps on wire-batch"},
	{Name: "httpapi.req_bytes", Unit: "bytes", Better: lower, Moves: "throughput_wps, cpu_us_per_checkin on wire-batch"},
	{Name: "httpapi.resp_bytes", Unit: "bytes", Better: lower, Moves: "throughput_wps, cpu_us_per_checkin on wire-batch"},
	{Name: "httpapi.sse_frames", Unit: "count", Better: lower, Moves: "nothing; one frame per event"},
	{Name: "httpapi.sse_lag_p50_us", Unit: "us", Better: lower, Moves: "event_lag_p50_us on wire-*"},
	{Name: "httpapi.sse_lag_p99_us", Unit: "us", Better: lower, Moves: "event-lag tail on wire-*"},
	{Name: "httpapi.stats_us", Unit: "us", Better: lower, Moves: "nothing measured; the audit's own poll"},

	{Name: "cluster.build_ms", Unit: "ms", Better: lower, Moves: "setup_s on wire-cluster"},
	{Name: "cluster.split_ms", Unit: "ms", Better: lower, Moves: "setup_s on wire-cluster"},
	{Name: "cluster.route_ns", Unit: "ns", Better: lower, Moves: "call_p50_us on wire-cluster (nil today: ns of a 60 us call)"},
	{Name: "cluster.redirects", Unit: "count", Better: lower, Moves: "failed when unhealed; expect 0"},
	{Name: "cluster.node_share_max", Unit: "ratio", Better: lower, Moves: "cluster.merge_lag_p50_us, throughput_wps on wire-cluster"},
	{Name: "cluster.merge_lag_p50_us", Unit: "us", Better: lower, Moves: "event_lag_p50_us on wire-cluster"},

	{Name: "ltc.new_platform_ms", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},

	{Name: "proc.allocs_per_checkin", Unit: "count", Better: lower, Moves: "cpu_us_per_checkin, peak_rss_mb; highest on wire-cluster"},
	{Name: "proc.bytes_per_checkin", Unit: "bytes", Better: lower, Moves: "cpu_us_per_checkin, peak_rss_mb; highest on wire-*"},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower, Moves: "cpu_us_per_checkin on wire-*"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Moves: "call tail on wire-*"},
	{Name: "proc.heap_peak_mb", Unit: "MiB", Better: lower, Moves: "peak_rss_mb"},
	{Name: "proc.cpu_user_s", Unit: "s", Better: lower, Moves: "cpu_us_per_checkin"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: lower, Moves: "cpu_us_per_checkin on wire-*"},

	{Name: "loadgen.passes", Unit: "count", Better: higher, Moves: "the sample size behind every median"},
	{Name: "loadgen.pass_rate_iqr", Unit: "ratio", Better: lower, Moves: "how noisy the box was"},
	{Name: "loadgen.call_p90_us", Unit: "us", Better: lower, Moves: "recorded tail; not an end-to-end metric until it repeats"},
	{Name: "loadgen.call_p99_us", Unit: "us", Better: lower, Moves: "recorded tail; not an end-to-end metric until it repeats"},
	{Name: "loadgen.event_lag_p90_us", Unit: "us", Better: lower, Moves: "recorded tail; not an end-to-end metric until it repeats"},
	{Name: "loadgen.late_p50_us", Unit: "us", Better: lower, Moves: "open-loop sender lateness on wire-cluster"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: lower, Moves: "open-loop sender lateness on wire-cluster"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: lower, Moves: "open-loop requests due but unsent; growth means the rate is above capacity"},
	{Name: "loadgen.timer_ns", Unit: "ns", Better: lower, Moves: "cost of one timestamp pair in latency passes"},
	{Name: "loadgen.canary_ns", Unit: "ns", Better: lower, Moves: "fixed CPU loop; more than 10% off the session's best flags the set noisy"},

	{Name: "trace.spans", Unit: "count", Better: higher, Moves: "spans recorded by the traced passes"},
	{Name: "trace.op_p50_us", Unit: "us", Better: lower, Moves: "traced front-door median"},
	{Name: "trace.stack_sum_us", Unit: "us", Better: lower, Moves: "sum of self medians along the blocking path; checked against trace.op_p50_us"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Moves: "traced front-door p50 / untraced call_p50_us - 1"},
}
