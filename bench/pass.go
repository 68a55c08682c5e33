package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// benchEpoch anchors the benchmark's one clock.
var benchEpoch = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since start-up.
// Every timestamp the benchmark compares — call starts, due times, event
// receipts, spans — comes from here.
func nowNs() int64 { return int64(time.Since(benchEpoch)) }

// passKind says what a pass measures. After the verification pass, passes
// alternate between capacity passes, where only the whole feed is bracketed
// (wall clock, getrusage, MemStats), and latency passes, where every
// front-door call and every received event is timestamped — so a timer
// never taxes the calls that throughput and CPU are computed from.
type passKind int

const (
	passVerify   passKind = iota // sequential, one feeder, untimed, audited hardest
	passCapacity                 // throughput, CPU, allocations
	passLatency                  // call latency, event lag
	passTraced                   // latency pass with spans and the shadow twin
)

// passResult is everything one pass measured.
type passResult struct {
	kind      passKind
	feeders   int
	setup     time.Duration
	wall      time.Duration // first feed to finish returning
	cpu       cpuTimes      // process CPU over the same window
	mem       memCounters   // allocation and GC deltas over the same window; heap in use at its end
	ingested  int           // check-ins the platform accepted
	consumed  int           // stream positions the feeders claimed
	attempted int           // front-door operations: check-ins, posts, retires
	faults    []fault

	ltcMax, ltcMean float64
	completedShare  float64
	frames          int
	eventLagNs      []float64 // latency passes: receive − start of the carrying call
	backlogMax      int       // open loop: requests due but not yet sent
	ringDepthMax    int
	dropped         int // events the subscription lost
	extras          rigExtras
}

func (p *passResult) failed() int {
	n := 0
	for _, f := range p.faults {
		n += f.n
	}
	return n
}

// runner holds what passes of one run share: the inputs, the tracer, and
// the buffers that are allocated once so the run's peak RSS does not depend
// on how many passes fit into its seconds.
type runner struct {
	spec *workloadSpec
	set  *inputSet
	tr   *tracer // nil unless the run is traced

	callStart []int64           // per stream position: start (or due time) of its call
	callNs    [feeders]*sampler // untraced latency passes
	lateNs    [feeders]*sampler // open loop: send − due; nil on a closed loop
	ops       [feeders]opTrace  // traced passes
}

// callSamples is a latency sampler's capacity: two feeders' worth put 65 536
// evenly strided calls behind a median and 655 above a 99th percentile.
const callSamples = 1 << 15

func newRunner(set *inputSet, tr *tracer) *runner {
	rn := &runner{
		spec: set.spec, set: set, tr: tr,
		callStart: make([]int64, set.stream),
	}
	for g := 0; g < feeders; g++ {
		rn.callNs[g] = newSampler(callSamples)
		if set.spec.OpenLoopRate > 0 {
			rn.lateNs[g] = newSampler(callSamples)
		}
	}
	return rn
}

func newRig(in *inputs, tr *tracer, timed bool) (rig, error) {
	switch in.spec.Mode {
	case modeWireBatch, modeWireCluster:
		return newWireRig(in, tr)
	}
	return newLibRig(in, tr, timed)
}

// sleepUntil waits for due on the benchmark clock: it sleeps to within a
// millisecond and then yields in a loop, because a sleeping goroutine wakes
// up to a scheduler quantum late.
func sleepUntil(due int64) {
	if wait := due - nowNs(); wait > int64(time.Millisecond) {
		time.Sleep(time.Duration(wait) - time.Millisecond)
	}
	for nowNs() < due {
		runtime.Gosched()
	}
}

// pacer is an open-loop schedule: request i is due at t0 + i/rate whether
// or not earlier requests have been answered, and its latency counts from
// that due time. A sender that stalls therefore charges its stall to every
// request that became due meanwhile, instead of silently sending them late
// and timing them from the late send.
type pacer struct {
	t0       int64
	interval float64 // ns between due times
}

func (p pacer) due(i int) int64 { return p.t0 + int64(float64(i)*p.interval) }

// overdue is how many requests from i on were already due at time now.
func (p pacer) overdue(i int, now int64) int {
	return max(int(float64(now-p.t0)/p.interval)-i, 0)
}

// send waits (with wait, which returns once clock has reached its argument)
// until request i is due and returns the due time and the time it was
// actually sent. An overdue request is sent at once.
func (p pacer) send(i int, clock func() int64, wait func(due int64)) (due, sent int64) {
	due = p.due(i)
	if clock() < due {
		wait(due)
	}
	return due, clock()
}

// pass builds a fresh platform over one variant of the inputs, feeds it the
// stream until it reports done (or the stream runs out and what is still
// open expires), waits for the subscriber to drain, audits, and tears down.
func (rn *runner) pass(kind passKind, nFeeders int, in *inputs) (*passResult, error) {
	timed := kind == passLatency || kind == passTraced
	var tr *tracer
	if kind == passTraced {
		tr = rn.tr
	}
	res := &passResult{kind: kind, feeders: nFeeders}

	t0 := time.Now()
	rg, err := newRig(in, tr, timed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setup = time.Since(t0)
	torn := false
	teardown := func() {
		if !torn {
			torn = true
			rg.teardown()
		}
	}
	defer teardown()

	// The one event consumer: a requester listening for completions.
	led := newLedger(len(in.in.Tasks), rn.spec.Nodes, rn.spec.Nodes > 0)
	var seenCompletions, seenDone atomic.Int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			e, ok := rg.nextEvent()
			if !ok {
				return
			}
			led.observe(e, nowNs())
			seenCompletions.Store(int64(led.completions))
			seenDone.Store(int64(led.platformDone))
		}
	}()

	stopDepth := rn.pollRingDepth(rg, res)

	// Feed. Only this window is bracketed in a capacity pass.
	stream := len(in.in.Workers)
	step := rn.spec.Batch
	var cursor, ingested atomic.Int64
	var stop atomic.Bool
	var feedErr error
	var errOnce sync.Once
	// Traced passes stay closed loop on every workload: the shadow work a
	// feeder does between calls would eat into an open-loop schedule, and
	// the stack would then measure the generator's own queue.
	var pace *pacer
	if kind == passLatency && rn.spec.OpenLoopRate > 0 {
		pace = &pacer{t0: nowNs() + int64(time.Millisecond), interval: 1e9 / rn.spec.OpenLoopRate}
	}
	var backlog [feeders]int
	var mem0 memCounters
	if kind == passCapacity {
		mem0 = readMem()
	}
	cpu0, w0 := processCPU(), time.Now()
	var wg sync.WaitGroup
	for g := 0; g < nFeeders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			defer func() { ingested.Add(int64(got)) }()
			for !stop.Load() {
				i := int(cursor.Add(int64(step))) - step
				if i >= stream {
					return
				}
				j := min(i+step, stream)
				var start int64
				var op *opTrace
				if timed {
					if pace != nil {
						var sent int64
						start, sent = pace.send(i, nowNs, sleepUntil)
						rn.lateNs[g].add(sent - start)
						backlog[g] = max(backlog[g], pace.overdue(i+1, sent))
					} else {
						start = nowNs()
					}
					for k := i; k < j; k++ {
						rn.callStart[k] = start
					}
					if tr != nil {
						op = &rn.ops[g]
						op.add(spFrontDoor, -1, false, j-i, start, 0)
					}
				}
				n, done, err := rg.feed(g, i, j, op)
				if timed {
					d := nowNs() - start
					if op == nil {
						rn.callNs[g].add(d)
					} else {
						op.spans[0].Dur = d
						rg.shadow(g, i, j, op)
						tr.finish(op)
					}
				}
				got += n
				if err != nil {
					errOnce.Do(func() { feedErr = err })
					stop.Store(true)
					return
				}
				if done {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	finishErr := rg.finish()
	res.wall = time.Since(w0)
	res.cpu = processCPU().sub(cpu0)
	if kind == passCapacity {
		m := readMem()
		res.mem = memCounters{
			mallocs: m.mallocs - mem0.mallocs, bytes: m.bytes - mem0.bytes,
			gcCycles: m.gcCycles - mem0.gcCycles, gcPause: m.gcPause - mem0.gcPause,
			heapInuse: m.heapInuse,
		}
	}
	stopDepth()
	res.ingested = int(ingested.Load())
	res.consumed = min(int(cursor.Load()), stream)
	for _, b := range backlog {
		res.backlogMax = max(res.backlogMax, b)
	}
	if err := errors.Join(feedErr, finishErr); err != nil {
		res.attempted = res.consumed
		res.faults = append(res.faults, fault{1, "front door: " + err.Error()})
		return res, nil
	}

	// Drain: the subscriber must hear of every completion and of the
	// platform finishing before the pass is over.
	fs, err := rg.final()
	if err != nil {
		res.attempted = res.consumed
		res.faults = append(res.faults, fault{1, "final state: " + err.Error()})
		return res, nil
	}
	res.dropped = int(fs.dropped)
	wantCompletions := 0
	for _, t := range fs.tasks {
		if t.completed {
			wantCompletions++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for (int(seenCompletions.Load()) < wantCompletions || int(seenDone.Load()) < fs.doneNotices) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	var verifyErr error
	if kind == passVerify {
		verifyErr = rg.verify(res.consumed)
	}
	teardown()
	<-consumerDone
	res.extras = rg.extras(led)

	res.faults = append(res.faults, auditPass(fs, led, in.in.Delta(), rn.spec.Churn, kind == passVerify)...)
	if verifyErr != nil {
		res.faults = append(res.faults, fault{1, "verification: " + verifyErr.Error()})
	}
	res.attempted = res.consumed + res.extras.lifecycleCalls
	res.frames = led.frames
	res.ltcMax, res.ltcMean, _ = led.latencies(fs)
	if len(fs.tasks) > 0 {
		res.completedShare = float64(wantCompletions) / float64(len(fs.tasks))
	}
	if timed {
		for task, by := range led.completedBy {
			if by > 0 && int(by) <= len(rn.callStart) {
				res.eventLagNs = append(res.eventLagNs, float64(led.recvAt[task]-rn.callStart[by-1]))
			}
		}
	}
	return res, nil
}

// pollRingDepth samples the async rings' depth once a millisecond while the
// pass feeds (traced runs of the async workload only: ShardStats takes every
// shard mutex, which a measured run should not pay for). The returned
// function stops the sampler and stores the maximum it saw.
func (rn *runner) pollRingDepth(rg rig, res *passResult) (stopFn func()) {
	lr, ok := rg.(*libRig)
	if !ok || rn.tr == nil || rn.spec.Mode != modeAsync {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	deepest := 0
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, sh := range lr.p.ShardStats() {
					deepest = max(deepest, sh.QueueDepth)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		res.ringDepthMax = deepest
	}
}
