package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileAndMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	vs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50}, {-5, 10}, {120, 50}} {
		if got := percentile(vs, c.p); !near(got, c.want, 1e-9) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Quartiles of 1..9 are 3 and 7 around a median of 5.
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}); !near(got, 0.8, 1e-9) {
		t.Errorf("relIQR = %v, want 0.8", got)
	}
	if got := relIQR([]float64{7}); got != 0 {
		t.Errorf("relIQR of one value = %v, want 0", got)
	}
}

func TestSamplerKeepsAnEvenStride(t *testing.T) {
	s := newSampler(8)
	for i := 1; i <= 100; i++ {
		s.add(int64(i))
	}
	if s.seen != 100 {
		t.Fatalf("seen = %d, want 100", s.seen)
	}
	if len(s.vals) == 0 || len(s.vals) > 8 {
		t.Fatalf("kept %d values, want 1..8", len(s.vals))
	}
	// Every kept value is a multiple of the final stride and they ascend by
	// exactly one stride: the subset is evenly spaced over the stream.
	for i, v := range s.vals {
		if v != int64(i+1)*int64(s.stride) {
			t.Fatalf("kept[%d] = %d with stride %d: %v", i, v, s.stride, s.vals)
		}
	}
	if got := percentile(s.appendTo(nil, 1), 50); !near(got, 50, float64(s.stride)) {
		t.Errorf("median of the kept values = %v, want about 50", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: spFrontDoor, Parent: -1, Start: 0, Dur: 100},
		{Name: spClientCall, Parent: 0, Start: 10, Dur: 30}, // [10,40)
		{Name: spRoundTrip, Parent: 0, Start: 30, Dur: 30},  // [30,60) overlaps the first by 10
		{Name: spHandler, Parent: 0, Start: 90, Dur: 40},    // [90,130) sticks out by 30
		{Name: spCheckIn, Parent: 2, Start: 35, Dur: 5},     // grandchild: not the root's business
	}
	self := selfTimes(nil, spans)
	// Covered: [10,60) = 50 and [90,100) = 10.
	if self[0] != 40 {
		t.Errorf("root self = %d, want 40", self[0])
	}
	if self[1] != 30 || self[3] != 40 {
		t.Errorf("leaf selves = %d, %d, want their durations 30, 40", self[1], self[3])
	}
	if self[2] != 25 {
		t.Errorf("roundtrip self = %d, want 30-5", self[2])
	}
}

func TestShadowSpansAreLaidEndToEnd(t *testing.T) {
	spans := []span{
		{Name: spFrontDoor, Parent: -1, Start: 1000, Dur: 100},
		{Name: spCheckIn, Parent: 0, Shadow: true, Dur: 70},
		{Name: spLocate, Parent: 1, Shadow: true, Dur: 10},
		{Name: spArrive, Parent: 1, Shadow: true, Dur: 40},
		{Name: spCandidates, Parent: 3, Shadow: true, Dur: 25},
	}
	layoutShadows(spans)
	wantStart := []int64{1000, 1000, 1000, 1010, 1010}
	for i, w := range wantStart {
		if spans[i].Start != w {
			t.Errorf("span %d starts at %d, want %d", i, spans[i].Start, w)
		}
	}
	self := selfTimes(nil, spans)
	want := []int64{30, 20, 10, 15, 25}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d self = %d, want %d", i, self[i], w)
		}
	}
	// Self times along the path add back up to the root.
	sum := int64(0)
	for _, s := range self {
		sum += s
	}
	if sum != spans[0].Dur {
		t.Errorf("selves sum to %d, root lasted %d", sum, spans[0].Dur)
	}
}

func TestTracerStackSumsThePath(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 100; i++ {
		op := &opTrace{}
		op.add(spFrontDoor, -1, false, 1, int64(i)*1000, 100)
		c := op.add(spCheckIn, 0, true, 1, 0, 70)
		op.add(spArrive, c, true, 1, 0, 40)
		// A root beside the front door (async engine work) is off the path.
		op.add(spCandidates, -1, true, 1, 0, 500)
		tr.finish(op)
	}
	opP50, sum, rows := tr.stack()
	if opP50 != 100 || sum != 100 {
		t.Errorf("op p50 = %v, stack sum = %v, want 100 and 100", opP50, sum)
	}
	for _, r := range rows {
		if r.Name == spanNames[spCandidates] {
			t.Errorf("off-path span %s is in the stack", r.Name)
		}
	}
	if tr.recorded != 400 || tr.ops != 100 {
		t.Errorf("recorded %d spans of %d ops, want 400 of 100", tr.recorded, tr.ops)
	}
}

// TestOpenLoopChargesAStallToLaterRequests drives a pacer with a fake
// clock: one sender, 1000 requests/s, every call takes 100 µs except the
// third, which stalls for 10 ms. Requests that became due during the stall
// are sent late, back to back, and their latency counts from their due
// time, not from when the stalled sender got round to them.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const ms = int64(1e6)
	now := int64(0)
	clock := func() int64 { return now }
	wait := func(due int64) {
		if now < due {
			now = due
		}
	}
	p := pacer{t0: 0, interval: float64(ms)}
	service := func(i int) int64 {
		if i == 3 {
			return 10 * ms
		}
		return ms / 10
	}
	var latency, lateness []int64
	for i := 0; i < 20; i++ {
		due, sent := p.send(i, clock, wait)
		if due != int64(i)*ms {
			t.Fatalf("request %d due at %d", i, due)
		}
		lateness = append(lateness, sent-due)
		now = sent + service(i)
		latency = append(latency, now-due)
	}
	if latency[2] != ms/10 || lateness[2] != 0 {
		t.Errorf("before the stall: latency %d lateness %d", latency[2], lateness[2])
	}
	// Request 4 was due at 4 ms; the stall ended at 13 ms.
	if lateness[4] != 9*ms || latency[4] != 9*ms+ms/10 {
		t.Errorf("request 4: lateness %d latency %d, want 9 ms and 9.1 ms", lateness[4], latency[4])
	}
	// The backlog drains at one request per 100 µs of service against one
	// per 1 ms of schedule; once caught up, requests are on time again.
	if lateness[19] != 0 || latency[19] != ms/10 {
		t.Errorf("after catching up: lateness %d latency %d", lateness[19], latency[19])
	}
	if got := p.overdue(5, 13*ms); got != 8 {
		t.Errorf("overdue(5, 13 ms) = %d, want 8 (requests 5..12)", got)
	}
}

// drainedPass builds the final state and ledger of a correct three-task
// pass: tasks 0..2 completed by workers 5, 9 and 7, one platform_done.
func drainedPass() (*finalState, *ledger) {
	fs := &finalState{
		done: true, resolved: 3, total: 3, latency: 9, doneNotices: 1,
		tasks: []taskFinal{
			{completed: true, credit: 5}, {completed: true, credit: 5}, {completed: true, credit: 5},
		},
	}
	l := newLedger(3, 0, false)
	for i, e := range []event{
		{kind: evCompleted, task: 0, worker: 5},
		{kind: evCompleted, task: 2, worker: 7},
		{kind: evCompleted, task: 1, worker: 9},
		{kind: evDone, task: -1},
	} {
		e.seq = uint64(i + 1)
		l.observe(e, int64(1000*(i+1)))
	}
	return fs, l
}

func faultText(fs []fault) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.what)
		b.WriteString("; ")
	}
	return b.String()
}

func TestAuditPassesACorrectPass(t *testing.T) {
	fs, l := drainedPass()
	if bad := auditPass(fs, l, 4.6, false, true); len(bad) != 0 {
		t.Fatalf("correct pass audited as faulty: %s", faultText(bad))
	}
	if mx, mean, n := l.latencies(fs); mx != 9 || mean != 7 || n != 3 {
		t.Errorf("latencies = %v, %v over %d, want 9, 7 over 3", mx, mean, n)
	}
}

func TestAuditCatchesLostAndDuplicatedEvents(t *testing.T) {
	// Lost: the notice for task 1 never arrives (and the stream shows the
	// hole in its sequence numbers).
	fs, _ := drainedPass()
	l := newLedger(3, 0, false)
	l.observe(event{kind: evCompleted, task: 0, worker: 5, seq: 1}, 1)
	l.observe(event{kind: evCompleted, task: 2, worker: 7, seq: 2}, 2)
	l.observe(event{kind: evDone, task: -1, seq: 4}, 3)
	bad := auditPass(fs, l, 4.6, false, false)
	if txt := faultText(bad); !strings.Contains(txt, "1 completed tasks without a task_completed notice") ||
		!strings.Contains(txt, "1 sequence gaps") {
		t.Errorf("lost event not caught: %q", txt)
	}

	// Duplicated: task 2's notice arrives twice.
	fs, l = drainedPass()
	l.observe(event{kind: evCompleted, task: 2, worker: 7, seq: 5}, 9)
	bad = auditPass(fs, l, 4.6, false, false)
	if txt := faultText(bad); !strings.Contains(txt, "1 duplicated task_completed notices") {
		t.Errorf("duplicated event not caught: %q", txt)
	}
	n := 0
	for _, f := range bad {
		n += f.n
	}
	if n != 1 {
		t.Errorf("a single duplicate counted as %d failed operations", n)
	}
}

func TestAuditCatchesStateFaults(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*finalState, *ledger)
		want   string
	}{
		"open task":     {func(fs *finalState, _ *ledger) { fs.tasks[1] = taskFinal{} }, "neither completed nor retired"},
		"short credit":  {func(fs *finalState, _ *ledger) { fs.tasks[0].credit = 1 }, "below the credit threshold"},
		"over K":        {func(fs *finalState, _ *ledger) { fs.overK = 2 }, "2 receipts granted more than K"},
		"dropped":       {func(fs *finalState, _ *ledger) { fs.dropped = 3 }, "dropped 3 events"},
		"not done":      {func(fs *finalState, _ *ledger) { fs.done = false }, "platform not done"},
		"no done event": {func(_ *finalState, l *ledger) { l.platformDone = 0 }, "platform_done notices"},
		"latency":       {func(fs *finalState, _ *ledger) { fs.latency = 8 }, "stream latency 9"},
		"spurious": {func(fs *finalState, _ *ledger) {
			fs.tasks[2] = taskFinal{retired: true}
		}, "did not complete"},
	} {
		fs, l := drainedPass()
		c.mutate(fs, l)
		if txt := faultText(auditPass(fs, l, 4.6, false, true)); !strings.Contains(txt, c.want) {
			t.Errorf("%s: faults %q lack %q", name, txt, c.want)
		}
	}
	// Two feeders can complete a task with a lower index than its last
	// assignment, so a concurrent pass only requires stream ≤ platform.
	fs, l := drainedPass()
	fs.latency = 12
	if bad := auditPass(fs, l, 4.6, false, false); len(bad) != 0 {
		t.Errorf("concurrent pass with platform latency above the stream's: %s", faultText(bad))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	spec := findWorkload("wire-batch")
	a, err := newInputSet(spec, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputSet(spec, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInputSet(spec, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash {
		t.Errorf("seed 7 hashed to %s and %s", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 both hashed to %s", a.hash)
	}
	variant := func(set *inputSet, v int) *inputs {
		in, err := set.variant(v)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	if variant(a, 0).hash == variant(a, 1).hash {
		t.Error("two variants of one seed are the same instance")
	}
	if variant(a, 1).hash != variant(a, 3).hash {
		t.Error("variant 3 of 2 is not variant 1 again")
	}
	if a.stream != len(variant(a, 0).in.Workers) {
		t.Errorf("stream = %d, variant 0 has %d workers", a.stream, len(variant(a, 0).in.Workers))
	}
	dyn, err := newInputSet(findWorkload("lib-percall-dynamic"), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in := variant(dyn, 0); in.churn == nil || len(in.churn.Events) == 0 {
		t.Error("the dynamic workload generated no lifecycle plan")
	}
}

func TestWholeLoops(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := wholeLoops(vs, 3); len(got) != 6 {
		t.Errorf("7 passes over 3 variants keep %d, want two loops of 3", len(got))
	}
	if got := wholeLoops(vs[:2], 3); len(got) != 2 {
		t.Errorf("a run short of one loop keeps %d passes, want both", len(got))
	}
}

// TestTwinPartitionIsTheDispatchersLayout holds the partition the twin
// builds beside its dispatcher (which keeps its own private) against that
// dispatcher's per-shard task counts, on the layouts that depend on dispatch's
// load sampling: balanced, and balanced from a stream prefix.
func TestTwinPartitionIsTheDispatchersLayout(t *testing.T) {
	for _, name := range []string{"lib-percall-uniform", "lib-batch-hotspot", "lib-percall-dynamic"} {
		spec := findWorkload(name)
		in, err := generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := newNodeTwin(spec, in.in)
		if err != nil {
			t.Fatal(err)
		}
		stats := nt.disp.ShardStats()
		if len(stats) != len(nt.part.Shards) {
			t.Fatalf("%s: dispatcher has %d shards, twin partition %d", name, len(stats), len(nt.part.Shards))
		}
		for i, sh := range stats {
			if want := len(nt.part.Shards[i].In.Tasks); sh.Tasks != want {
				t.Errorf("%s shard %d: dispatcher holds %d tasks, twin partition %d", name, i, sh.Tasks, want)
			}
		}
		_ = nt.disp.Close() // always nil
	}
}

func readManifest(t *testing.T) *manifestFile {
	t.Helper()
	var mf manifestFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	return &mf
}

func TestManifestMatchesCatalog(t *testing.T) {
	mf := readManifest(t)
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", mf.Paths)
	}
	if strings.Join(mf.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", mf.Command)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the catalog", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / catalog %q differ", i, mf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the catalog", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: manifest %+v, catalog %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v in the manifest, %v in the catalog (must be in (0, 0.25])", m.Name, g.Bound, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	if mf.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestSmoke runs every workload for a fraction of a second, measured and
// traced, and holds the results against the manifest: every metric present
// by name with its unit, no failed operation, and a suite file that
// round-trips and compares clean against itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	mf := readManifest(t)
	dir := t.TempDir()
	suite := &suiteFile{Seed: 42, Seconds: 0.1, Workloads: map[string]*suiteWorkload{}}
	for _, w := range mf.Workloads {
		sw := &suiteWorkload{}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runOptions{
				workload: w.Name, seed: 42, seconds: 0.1, trace: traced, variants: 2,
				outDir: dir, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Env.Faults)
			}
			want := mf.EndToEnd
			if traced {
				want = mf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, manifest lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s %s: unit %q, manifest says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s %s: value %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s %s: end-to-end value %v must be positive", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				sw.PerLayer = res.Metrics
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if lc := res.Metrics["lifecycle_p50_us"].Value; (lc > 0) != (w.Name == "lib-percall-dynamic") {
					t.Errorf("%s: lifecycle_p50_us = %v; only the dynamic workload makes lifecycle calls", w.Name, lc)
				}
			} else {
				sw.Env, sw.Correct, sw.Attempted, sw.Failed, sw.EndToEnd = res.Env, res.Correct, res.Attempted, res.Failed, res.Metrics
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w.Name, keys)
				}
			}
		}
		suite.Workloads[w.Name] = sw
	}
	data, err := json.Marshal(suite)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := compareSuites(&out, filepath.Join("..", "BENCHMARK.json"), path, path)
	if err != nil || !ok {
		t.Errorf("a suite does not compare clean against itself (%v):\n%s", err, out.String())
	}
}

func TestCompareGatesOnBoundAndDirection(t *testing.T) {
	mf := readManifest(t)
	mk := func(scale map[string]float64) *suiteFile {
		s := &suiteFile{Workloads: map[string]*suiteWorkload{}}
		for _, w := range mf.Workloads {
			sw := &suiteWorkload{Correct: true, Attempted: 1, EndToEnd: map[string]metricValue{}}
			for _, m := range mf.EndToEnd {
				v := 100.0
				if f, ok := scale[w.Name+"/"+m.Name]; ok {
					v *= f
				}
				sw.EndToEnd[m.Name] = metricValue{v, m.Unit}
			}
			s.Workloads[w.Name] = sw
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *suiteFile) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	manifest := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", mk(nil))
	for name, c := range map[string]struct {
		scale map[string]float64
		ok    bool
	}{
		"same":                   {nil, true},
		"throughput up 30%":      {map[string]float64{"wire-batch/throughput_wps": 1.3}, true},
		"throughput down 30%":    {map[string]float64{"wire-batch/throughput_wps": 0.7}, false},
		"latency up 30%":         {map[string]float64{"wire-cluster/call_p50_us": 1.3}, false},
		"latency down 30%":       {map[string]float64{"wire-cluster/call_p50_us": 0.7}, true},
		"inside the bound":       {map[string]float64{"lib-async-uniform/ltc_latency_mean": 1.04}, true},
		"objective beyond bound": {map[string]float64{"lib-async-uniform/ltc_latency_mean": 1.06}, false},
	} {
		var out bytes.Buffer
		ok, err := compareSuites(&out, manifest, base, write("b.json", mk(c.scale)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok != c.ok {
			t.Errorf("%s: verdict %v, want %v\n%s", name, ok, c.ok, out.String())
		}
	}
	// A failed operation fails the comparison whatever the metrics say, and
	// a noisy flag is surfaced without changing the verdict.
	failed := mk(nil)
	failed.Workloads["wire-batch"].Failed = 1
	var out bytes.Buffer
	if ok, _ := compareSuites(&out, manifest, base, write("f.json", failed)); ok {
		t.Error("a set with a failed operation compared clean")
	}
	// A metric that read 0 in the first set has no share to worsen by.
	zero := mk(map[string]float64{"wire-batch/setup_s": 0})
	out.Reset()
	if ok, _ := compareSuites(&out, manifest, write("z.json", zero), base); ok || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("a zero baseline compared clean:\n%s", out.String())
	}
	noisy := mk(nil)
	noisy.Workloads["wire-batch"].Noisy = true
	out.Reset()
	if ok, _ := compareSuites(&out, manifest, base, write("n.json", noisy)); !ok || !strings.Contains(out.String(), "noisy") {
		t.Errorf("noisy flag: ok=%v output:\n%s", ok, out.String())
	}
}
