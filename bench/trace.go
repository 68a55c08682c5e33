package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
)

// Tracing from outside: the benchmark records a span around every call it
// makes into a layer. Real spans bracket calls on the measured path (the
// front-door call, the HTTP round trip seen by a wrapping RoundTripper, the
// handler seen by a wrapping http.Handler). Shadow spans bracket the same
// public function called on a twin of the inner layer that is fed the same
// input right after the real call returns; they carry Shadow and are laid
// end to end from their parent's start, since only their length is known.

type spanName uint8

const (
	spFrontDoor spanName = iota
	spClientCall
	spRoundTrip
	spHandler
	spRoute
	spCheckIn
	spBatch
	spEnqueue
	spLocate
	spArrive
	spCandidates
	spPublish
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spFrontDoor:  "ltc.front_door",
	spClientCall: "httpapi.client_call",
	spRoundTrip:  "httpapi.roundtrip",
	spHandler:    "httpapi.handler",
	spRoute:      "cluster.route",
	spCheckIn:    "dispatch.checkin",
	spBatch:      "dispatch.batch",
	spEnqueue:    "dispatch.enqueue",
	spLocate:     "model.locate",
	spArrive:     "core.arrive",
	spCandidates: "model.candidates",
	spPublish:    "events.publish",
}

// span is one timed interval of one front-door operation. Parent indexes
// the operation's span list (-1 for a root); N is how many workers the
// interval covers, so per-worker cost is Dur/N.
type span struct {
	Name   spanName
	Shadow bool
	Parent int16
	N      int32
	Start  int64 // benchmark clock (nowNs); assigned by layout for shadows
	Dur    int64
}

// opTrace collects the spans of one operation. Each feeder owns one and
// reuses it; server-side spans reach it through the feeder's slot.
type opTrace struct {
	spans []span
}

// add appends a span and returns its index for use as a Parent.
func (o *opTrace) add(name spanName, parent int, shadow bool, n int, start, dur int64) int {
	o.spans = append(o.spans, span{
		Name: name, Shadow: shadow, Parent: int16(parent), N: int32(max(n, 1)), Start: start, Dur: dur,
	})
	return len(o.spans) - 1
}

// opSpans is the most spans one operation records; scratch space for that
// many lives on the stack, so folding an operation allocates nothing.
const opSpans = 16

// layoutShadows assigns every shadow span a start: the shadow children of
// one parent are laid end to end from the parent's start, in the order they
// were recorded. Parents always precede their children in the list.
func layoutShadows(spans []span) {
	var buf [opSpans]int64
	next := append(buf[:0], make([]int64, len(spans))...)
	for i := range spans {
		next[i] = spans[i].Start
	}
	for i := range spans {
		s := &spans[i]
		if s.Shadow && s.Parent >= 0 {
			s.Start = next[s.Parent]
			next[s.Parent] += s.Dur
			next[i] = s.Start
		}
	}
}

// selfTimes appends to dst, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(dst []int64, spans []span) []int64 {
	type iv struct{ a, b int64 }
	var buf [opSpans]iv
	for i, p := range spans {
		kids := buf[:0]
		for _, s := range spans[i+1:] { // children follow their parent
			if int(s.Parent) != i {
				continue
			}
			a, b := max(s.Start, p.Start), min(s.Start+s.Dur, p.Start+p.Dur)
			if b <= a {
				continue
			}
			// Insert in order of start; an operation has a handful of spans.
			k := len(kids)
			kids = append(kids, iv{})
			for ; k > 0 && kids[k-1].a > a; k-- {
				kids[k] = kids[k-1]
			}
			kids[k] = iv{a, b}
		}
		covered, end := int64(0), int64(math.MinInt64)
		for _, k := range kids {
			if k.b > end {
				covered += k.b - max(k.a, end)
				end = k.b
			}
		}
		dst = append(dst, p.Dur-covered)
	}
	return dst
}

// tracer aggregates finished operations. Its mutex is taken once per
// operation, by traced passes only.
type tracer struct {
	mu       sync.Mutex
	ops      int
	recorded int
	dur      [numSpanNames]*sampler // duration
	self     [numSpanNames]*sampler // self time
	// pathSelf[name] samples, per operation, the self time name contributed
	// to the blocking path under the front-door root (0 when absent).
	pathSelf [numSpanNames]*sampler
	onPath   [numSpanNames]bool
	shadow   [numSpanNames]bool
	count    [numSpanNames]int
	kept     []keptSpan
	nextID   uint32

	// emptyNs is the median length of a span around nothing — the clock's
	// own cost, which every shadow span would otherwise carry.
	emptyNs int64
	// Written by the live twin (under its mutex, or by its one bus
	// subscriber); passes run one at a time, so there is one live twin.
	deliver  *sampler // twin bus publish → receive, ns
	queries  int64    // candidate queries
	scanned  int64    // candidates those queries returned
	arrivals int64    // workers offered to a twin engine
	grants   int64    // assignments the twin engines made
}

// keptSpan is a span as written to the trace file.
type keptSpan struct {
	Op     uint32 `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	N      int32  `json:"n,omitempty"`
	Shadow bool   `json:"shadow,omitempty"`
}

const (
	traceSamples  = 1 << 14 // per-name sampler capacity
	traceKeepSpan = 20_000  // raw spans written to the trace file
)

func newTracer() *tracer {
	t := &tracer{deliver: newSampler(traceSamples)}
	vs := make([]float64, 0, 4096)
	for i := 0; i < cap(vs); i++ {
		a := t.now()
		vs = append(vs, float64(t.now()-a))
	}
	t.emptyNs = int64(median(vs))
	for i := range t.dur {
		t.dur[i] = newSampler(traceSamples)
		t.self[i] = newSampler(traceSamples)
		t.pathSelf[i] = newSampler(traceSamples)
	}
	return t
}

// now is the tracer's clock, the benchmark's own.
func (t *tracer) now() int64 { return nowNs() }

// finish folds one operation's spans into the aggregates.
func (t *tracer) finish(o *opTrace) {
	if len(o.spans) == 0 {
		return
	}
	layoutShadows(o.spans)
	var selfBuf [opSpans]int64
	self := selfTimes(selfBuf[:0], o.spans)
	var path [numSpanNames]int64
	var onPath [numSpanNames]bool
	var underBuf [opSpans]bool // descends from the front-door root
	under := append(underBuf[:0], make([]bool, len(o.spans))...)
	for i, s := range o.spans {
		under[i] = (s.Parent < 0 && s.Name == spFrontDoor) || (s.Parent >= 0 && under[s.Parent])
		if under[i] {
			path[s.Name] += self[i]
			onPath[s.Name] = true
		}
	}
	t.mu.Lock()
	t.ops++
	t.nextID++
	id := t.nextID
	for i, s := range o.spans {
		t.count[s.Name]++
		t.shadow[s.Name] = s.Shadow
		t.dur[s.Name].add(s.Dur)
		t.self[s.Name].add(self[i])
		if len(t.kept) < traceKeepSpan {
			t.kept = append(t.kept, keptSpan{
				Op: id, Name: spanNames[s.Name], Parent: int(s.Parent),
				Start: s.Start, Dur: s.Dur, N: s.N, Shadow: s.Shadow,
			})
		}
	}
	t.recorded += len(o.spans)
	for name := range path {
		if onPath[name] {
			t.onPath[name] = true
		}
		if t.onPath[name] {
			t.pathSelf[name].add(path[name])
		}
	}
	t.mu.Unlock()
	o.spans = o.spans[:0]
}

// samplerP is the p-th percentile of a sampler's kept values.
func samplerP(s *sampler, p float64) float64 {
	return percentile(s.appendTo(nil, 1), p)
}

// Median duration and self time of a span name, in ns per front-door call.
func (t *tracer) durP50(n spanName) float64  { return samplerP(t.dur[n], 50) }
func (t *tracer) selfP50(n spanName) float64 { return samplerP(t.self[n], 50) }

// stack returns the traced front-door median and the sum, over the span
// names on its blocking path, of each name's median self time per
// operation — the two numbers the cost-stack check compares.
func (t *tracer) stack() (opP50, stackSum float64, rows []stackRow) {
	opP50 = samplerP(t.dur[spFrontDoor], 50)
	for n := spanName(0); n < numSpanNames; n++ {
		if !t.onPath[n] {
			continue
		}
		m := samplerP(t.pathSelf[n], 50)
		stackSum += m
		rows = append(rows, stackRow{Name: spanNames[n], SelfP50Us: m / 1e3, Shadow: t.shadow[n]})
	}
	for i := range rows {
		if stackSum > 0 {
			rows[i].Share = rows[i].SelfP50Us * 1e3 / stackSum
		}
	}
	return opP50, stackSum, rows
}

// stackRow is one layer of the cost stack.
type stackRow struct {
	Name      string  `json:"name"`
	SelfP50Us float64 `json:"self_p50_us"`
	Share     float64 `json:"share"`
	Shadow    bool    `json:"shadow,omitempty"`
}

// nameSummary is one span name's line in the trace file.
type nameSummary struct {
	Name      string  `json:"name"`
	Shadow    bool    `json:"shadow,omitempty"`
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50_us"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// traceFile is the JSON written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Ops        int           `json:"ops"`
	Spans      int           `json:"spans"`
	OpP50Us    float64       `json:"op_p50_us"`
	StackSumUs float64       `json:"stack_sum_us"`
	Stack      []stackRow    `json:"stack"`
	Summary    []nameSummary `json:"summary"`
	Kept       []keptSpan    `json:"spans_kept"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	opP50, sum, rows := t.stack()
	f := traceFile{
		Workload: workload, Seed: seed, Ops: t.ops, Spans: t.recorded,
		OpP50Us: opP50 / 1e3, StackSumUs: sum / 1e3, Stack: rows, Kept: t.kept,
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if t.count[n] == 0 {
			continue
		}
		f.Summary = append(f.Summary, nameSummary{
			Name: spanNames[n], Shadow: t.shadow[n], Count: t.count[n],
			P50Us: t.durP50(n) / 1e3, SelfP50Us: t.selfP50(n) / 1e3,
		})
	}
	// Delivery on the twin bus is asynchronous to every operation, so it is
	// summarised beside the spans rather than parented under one.
	if t.deliver.seen > 0 {
		f.Summary = append(f.Summary, nameSummary{
			Name: "events.deliver", Shadow: true, Count: t.deliver.seen,
			P50Us: samplerP(t.deliver, 50) / 1e3, SelfP50Us: samplerP(t.deliver, 50) / 1e3,
		})
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
