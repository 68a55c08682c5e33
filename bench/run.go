package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports. The first four fields
// are the driver's contract: the last line of standard output is exactly
// them. Env rides along in suite.json only.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       *runEnv                `json:"-"`
}

// runEnv records the conditions of a run.
type runEnv struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	InputHash  string   `json:"input_hash"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Passes     int      `json:"passes"`
	CanaryNs   float64  `json:"canary_ns"`
	Faults     []string `json:"faults,omitempty"`
}

// runOptions are the knobs of one run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	variants int       // instances drawn from the seed; 0 means the default
	outDir   string    // where trace files go
	log      io.Writer // human-readable progress; the result line goes to stdout
}

// agg accumulates pass results into the run's metrics.
type agg struct {
	passes             int
	attempted, failed  int
	faults             []string
	setups             []float64   // s, untraced passes
	peakRSS            []float64   // MiB, VmHWM reached during each pass
	rates, rates1      []float64   // check-ins/s: two-feeder and one-feeder capacity passes
	cpu                cpuTimes    // over two-feeder capacity feed windows
	ingested           int         // over the same windows
	mem                memCounters // summed deltas; heapInuse holds the peak
	ltcMax, ltcMean    []float64
	completedShare     []float64
	consumed           []float64
	eventLag           *sampler // ns, untraced latency passes
	lifecycle          []float64
	backlogMax         int
	ringDepthMax       int
	frames             []float64
	imbalance, migr    []float64
	nodeShare          []float64
	flushUs, statsUs   []float64
	sseLag, mergeLag   []float64
	reqBytes, respB    int64
	requests, redirect int64
	dropped            int
	canary             []float64
}

func (a *agg) add(p *passResult) {
	a.passes++
	a.attempted += p.attempted
	a.failed += p.failed()
	for _, f := range p.faults {
		a.faults = append(a.faults, f.what)
	}
	if p.kind == passVerify {
		return
	}
	if p.kind != passTraced {
		a.setups = append(a.setups, p.setup.Seconds())
	}
	a.ltcMax = append(a.ltcMax, p.ltcMax)
	a.ltcMean = append(a.ltcMean, p.ltcMean)
	a.completedShare = append(a.completedShare, p.completedShare)
	a.consumed = append(a.consumed, float64(p.consumed))
	a.frames = append(a.frames, float64(p.frames))
	a.imbalance = append(a.imbalance, p.extras.imbalance)
	a.migr = append(a.migr, float64(p.extras.migrations))
	a.nodeShare = append(a.nodeShare, p.extras.nodeShareMax)
	a.ringDepthMax = max(a.ringDepthMax, p.ringDepthMax)
	a.dropped += p.dropped
	for _, ns := range p.extras.statsNs {
		a.statsUs = append(a.statsUs, float64(ns)/1e3)
	}
	if p.extras.flushNs > 0 {
		a.flushUs = append(a.flushUs, float64(p.extras.flushNs)/1e3)
	}
	switch p.kind {
	case passCapacity:
		rate := float64(p.ingested) / p.wall.Seconds()
		if p.feeders == 1 {
			a.rates1 = append(a.rates1, rate)
			return
		}
		a.rates = append(a.rates, rate)
		a.cpu.user += p.cpu.user
		a.cpu.sys += p.cpu.sys
		a.ingested += p.ingested
		a.mem.mallocs += p.mem.mallocs
		a.mem.bytes += p.mem.bytes
		a.mem.gcCycles += p.mem.gcCycles
		a.mem.gcPause += p.mem.gcPause
		a.mem.heapInuse = max(a.mem.heapInuse, p.mem.heapInuse)
	case passLatency:
		for _, v := range p.eventLagNs {
			a.eventLag.add(int64(v))
		}
		for _, ns := range p.extras.lifecycleNs {
			a.lifecycle = append(a.lifecycle, float64(ns)/1e3)
		}
		a.backlogMax = max(a.backlogMax, p.backlogMax)
	case passTraced:
		a.sseLag = append(a.sseLag, p.extras.sseLagNs...)
		a.mergeLag = append(a.mergeLag, p.extras.mergeLagNs...)
		a.reqBytes += p.extras.reqBytes
		a.respB += p.extras.respBytes
		a.requests += p.extras.requests
		a.redirect += p.extras.redirects
	}
}

// nsInUs is the clock's resolution in the unit latencies are reported in.
const nsInUs = 1e-3

// mergeSamplers returns the feeders' kept samples in microseconds.
func mergeSamplers(ss [feeders]*sampler) []float64 {
	var out []float64
	for _, s := range ss {
		if s != nil {
			out = s.appendTo(out, nsInUs)
		}
	}
	return out
}

// wholeLoops trims per-pass values to the passes of complete loops over the
// variants, so the figure is taken over the same instances however many
// passes the machine fitted into the run; a run too short for one loop keeps
// what it has.
func wholeLoops(vs []float64, loop int) []float64 {
	if n := len(vs) / loop * loop; n > 0 {
		return vs[:n]
	}
	return vs
}

// runWorkload runs one workload for opts.seconds and returns its result.
func runWorkload(opts runOptions) (*runResult, error) {
	spec := findWorkload(opts.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.variants == 0 {
		opts.variants = variants
	}
	set, err := newInputSet(spec, opts.seed, opts.variants)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	var tr *tracer
	layers := map[string]float64{}
	a := &agg{eventLag: newSampler(callSamples)}
	a.canary = append(a.canary, canaryNs())
	if opts.trace {
		tr = newTracer()
		in, err := set.variant(0)
		if err != nil {
			return nil, err
		}
		if layers, err = layerBench(in); err != nil {
			return nil, fmt.Errorf("layer microbenchmarks: %w", err)
		}
	}
	rn := newRunner(set, tr)
	// Every pass generates its variant, collects what the last one left
	// behind, and runs.
	pass := func(kind passKind, nFeeders, variant int) error {
		in, err := set.variant(variant)
		if err != nil {
			return err
		}
		runtime.GC()
		resetPeakRSS()
		p, err := rn.pass(kind, nFeeders, in)
		if err != nil {
			return err
		}
		a.add(p)
		if kind == passVerify {
			fmt.Fprintf(opts.log, "%s verify: %d check-ins, %d faults\n", spec.Name, p.consumed, len(p.faults))
			return nil
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		a.peakRSS = append(a.peakRSS, rss)
		return nil
	}

	// Pass 0 verifies: one feeder, sequential, untimed.
	if err := pass(passVerify, 1, 0); err != nil {
		return nil, err
	}

	// Then passes alternate until the time is up; every kind runs at least
	// once so every metric has a sample. Every pass takes the next variant
	// of the inputs.
	type plan struct {
		kind    passKind
		feeders int
	}
	cycle := []plan{{passCapacity, feeders}, {passLatency, feeders}}
	if opts.trace {
		cycle = append(cycle, plan{passCapacity, 1}, plan{passTraced, feeders})
	}
	start := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))
	for i := 0; i < len(cycle) || time.Since(start) < budget; i++ {
		c := cycle[i%len(cycle)]
		if err := pass(c.kind, c.feeders, i); err != nil {
			return nil, err
		}
		if i%len(cycle) == len(cycle)-1 {
			a.canary = append(a.canary, canaryNs())
		}
	}

	res := &runResult{
		Correct: a.failed == 0, Attempted: a.attempted, Failed: a.failed,
		Metrics: map[string]metricValue{},
		Env: &runEnv{
			Workload: spec.Name, Seed: opts.seed, Seconds: opts.seconds, InputHash: set.hash,
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Passes: a.passes,
			CanaryNs: median(a.canary), Faults: a.faults,
		},
	}
	call := mergeSamplers(rn.callNs)
	lag := a.eventLag.appendTo(nil, nsInUs)
	if !opts.trace {
		vals := map[string]float64{
			"setup_s":            median(a.setups),
			"throughput_wps":     median(a.rates),
			"cpu_us_per_checkin": a.cpu.total().Seconds() * 1e6 / float64(max(a.ingested, 1)),
			"call_p50_us":        percentile(call, 50),
			"event_lag_p50_us":   percentile(lag, 50),
			"ltc_latency_max":    median(wholeLoops(a.ltcMax, set.n)),
			"ltc_latency_mean":   median(wholeLoops(a.ltcMean, set.n)),
			"peak_rss_mb":        median(a.peakRSS),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
		return res, nil
	}

	// Traced run: the per-layer metrics.
	v := layers
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["lifecycle_p50_us"] = median(a.lifecycle)
	v["workload.generate_ms"] = set.generateMs
	v["workload.checkins_per_pass"] = median(a.consumed)

	// Shadow spans cover one front-door call; per-worker figures divide by
	// the workers a call carries.
	per := float64(spec.Batch)
	v["model.locate_ns"] = tr.durP50(spLocate) / per
	v["model.candidates_ns"] = tr.durP50(spCandidates) / per
	v["model.candidates_per_query"] = ratio(float64(tr.scanned), float64(tr.queries))
	v["model.candidate_use_ratio"] = ratio(float64(tr.grants), float64(tr.scanned))
	v["core.arrive_ns"] = tr.durP50(spArrive) / per
	v["core.arrive_self_ns"] = tr.selfP50(spArrive) / per
	v["core.grants_per_arrival"] = ratio(float64(tr.grants), float64(tr.arrivals))
	v["core.completed_share"] = median(a.completedShare)

	v["dispatch.checkin_ns"] = tr.durP50(spCheckIn)
	v["dispatch.checkin_self_ns"] = tr.selfP50(spCheckIn)
	v["dispatch.batch_ns_per_worker"] = tr.durP50(spBatch) / per
	v["dispatch.enqueue_ns"] = tr.durP50(spEnqueue)
	v["dispatch.flush_wait_us"] = median(a.flushUs)
	v["dispatch.ring_depth_max"] = float64(a.ringDepthMax)
	v["dispatch.feeder_scaling"] = ratio(median(a.rates), median(a.rates1))
	v["dispatch.imbalance"] = median(a.imbalance)
	v["dispatch.migrations"] = median(a.migr)

	deliver := tr.deliver.appendTo(nil, nsInUs)
	v["events.deliver_p50_us"] = percentile(deliver, 50)
	v["events.deliver_p99_us"] = percentile(deliver, 99)
	v["events.dropped"] = float64(a.dropped)

	v["httpapi.client_call_us"] = tr.durP50(spClientCall) / 1e3
	v["httpapi.client_codec_us"] = tr.selfP50(spClientCall) / 1e3
	v["httpapi.roundtrip_us"] = tr.durP50(spRoundTrip) / 1e3
	v["httpapi.transport_us"] = tr.selfP50(spRoundTrip) / 1e3
	v["httpapi.handler_us"] = tr.durP50(spHandler) / 1e3
	v["httpapi.handler_self_us"] = tr.selfP50(spHandler) / 1e3
	if spec.Mode == modeWireBatch {
		v["httpapi.batch_handler_us_per_worker"] = tr.durP50(spHandler) / per / 1e3
	}
	v["httpapi.req_bytes"] = ratio(float64(a.reqBytes), float64(a.requests))
	v["httpapi.resp_bytes"] = ratio(float64(a.respB), float64(a.requests))
	if spec.Mode == modeWireBatch || spec.Mode == modeWireCluster {
		v["httpapi.sse_frames"] = median(a.frames)
	}
	v["httpapi.sse_lag_p50_us"] = percentile(a.sseLag, 50) / 1e3
	v["httpapi.sse_lag_p99_us"] = percentile(a.sseLag, 99) / 1e3
	v["httpapi.stats_us"] = median(a.statsUs)

	v["cluster.route_ns"] = tr.durP50(spRoute)
	v["cluster.redirects"] = float64(a.redirect)
	v["cluster.node_share_max"] = median(a.nodeShare)
	v["cluster.merge_lag_p50_us"] = percentile(a.mergeLag, 50) / 1e3

	v["proc.allocs_per_checkin"] = ratio(float64(a.mem.mallocs), float64(a.ingested))
	v["proc.bytes_per_checkin"] = ratio(float64(a.mem.bytes), float64(a.ingested))
	v["proc.gc_cycles"] = float64(a.mem.gcCycles)
	v["proc.gc_pause_ms"] = a.mem.gcPause.Seconds() * 1e3
	v["proc.heap_peak_mb"] = float64(a.mem.heapInuse) / (1 << 20)
	v["proc.cpu_user_s"] = a.cpu.user.Seconds()
	v["proc.cpu_sys_s"] = a.cpu.sys.Seconds()

	late := mergeSamplers(rn.lateNs)
	v["loadgen.passes"] = float64(a.passes)
	v["loadgen.pass_rate_iqr"] = relIQR(a.rates)
	v["loadgen.call_p90_us"] = percentile(call, 90)
	v["loadgen.call_p99_us"] = percentile(call, 99)
	v["loadgen.event_lag_p90_us"] = percentile(lag, 90)
	v["loadgen.late_p50_us"] = percentile(late, 50)
	v["loadgen.late_p99_us"] = percentile(late, 99)
	v["loadgen.backlog_max"] = float64(a.backlogMax)
	v["loadgen.canary_ns"] = median(a.canary)

	opP50, stackSum, _ := tr.stack()
	v["trace.spans"] = float64(tr.recorded)
	v["trace.op_p50_us"] = opP50 / 1e3
	v["trace.stack_sum_us"] = stackSum / 1e3
	if base := percentile(call, 50); base > 0 {
		v["trace.overhead_share"] = opP50/1e3/base - 1
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{v[m.Name], m.Unit}
	}
	if opts.outDir != "" {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(opts.outDir, "trace-"+spec.Name+".json"), spec.Name, opts.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}
