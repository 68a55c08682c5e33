package ltc

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The golden-trace regression suite pins today's solver behaviour byte for
// byte: for each (workload, algorithm) fixture it replays the worker stream
// through Session and through a 1-shard Platform, renders every arrival's
// assignments plus the final latency and per-task credits (hex floats, so
// no rounding ambiguity), and compares against testdata/. Any refactor that
// silently changes an assignment, an ordering, or a single bit of
// accumulated credit fails here first.
//
// Regenerate after an *intentional* behaviour change with:
//
//	go test -run TestGoldenTraces -update
var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// goldenCase is one pinned workload. All are small Table IV shapes (the
// golden files must stay reviewable and fast).
type goldenCase struct {
	name string
	cfg  func() WorkloadConfig
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"tableiv-default-x001", func() WorkloadConfig {
			return DefaultWorkload().Scale(0.01) // 30 tasks, 400 workers
		}},
		{"tableiv-k4-eps014-x001", func() WorkloadConfig {
			c := DefaultWorkload().Scale(0.01)
			c.K = 4
			c.Epsilon = 0.14
			c.Seed = 2
			return c
		}},
		{"tableiv-uniform-x001", func() WorkloadConfig {
			c := DefaultWorkload().Scale(0.01)
			c.Accuracy = AccuracyDist{Kind: DistUniform, Mean: 0.86, Spread: 0.10}
			c.Seed = 3
			return c
		}},
	}
}

var goldenAlgorithms = []Algorithm{LAF, AAM, RandomAssign}

const goldenSeed = 7 // drives RandomAssign

// writeTraceHeader, writeArrivalLine and writeTraceFooter render the
// canonical trace pieces shared by the per-call and batched replays.
func writeTraceHeader(b *bytes.Buffer, name string, algo Algorithm, in *Instance) {
	fmt.Fprintf(b, "# ltc golden trace\n")
	fmt.Fprintf(b, "workload=%s algo=%s seed=%d\n", name, algo, goldenSeed)
	fmt.Fprintf(b, "tasks=%d workers=%d k=%d epsilon=%s delta=%s\n",
		len(in.Tasks), len(in.Workers), in.K,
		strconv.FormatFloat(in.Epsilon, 'g', -1, 64),
		strconv.FormatFloat(in.Delta(), 'x', -1, 64))
}

func writeArrivalLine(b *bytes.Buffer, index int, assigned []TaskID) {
	fmt.Fprintf(b, "arrival %d:", index)
	if len(assigned) == 0 {
		b.WriteString(" -")
	}
	for i, t := range assigned {
		if i > 0 {
			b.WriteByte(',')
		} else {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d", t)
	}
	b.WriteByte('\n')
}

func writeTraceFooter(b *bytes.Buffer, done bool, latency int, credits []float64) {
	fmt.Fprintf(b, "done=%t latency=%d\n", done, latency)
	for tid, c := range credits {
		fmt.Fprintf(b, "credit %d: %s\n", tid, strconv.FormatFloat(c, 'x', -1, 64))
	}
}

// renderTrace drives a worker stream through feed and renders the canonical
// trace text. feed returns one worker's check-in Receipt (the v2 API shape
// shared by Session.Arrive and Platform.CheckIn); the rendered bytes use
// only the granted TaskIDs, so the recorded fixtures predate — and pin —
// the receipt redesign without re-recording. done reports completion;
// credits snapshots accumulated per-task credit.
func renderTrace(name string, algo Algorithm, in *Instance,
	feed func(Worker) (Receipt, error), done func() bool, latency func() int,
	credits func() []float64) (string, error) {

	var b bytes.Buffer
	writeTraceHeader(&b, name, algo, in)
	for _, w := range in.Workers {
		if done() {
			break
		}
		rec, err := feed(w)
		if err != nil {
			return "", fmt.Errorf("worker %d: %w", w.Index, err)
		}
		if rec.Worker != w.Index {
			return "", fmt.Errorf("receipt echoes worker %d, fed %d", rec.Worker, w.Index)
		}
		writeArrivalLine(&b, w.Index, rec.Tasks())
	}
	writeTraceFooter(&b, done(), latency(), credits())
	return b.String(), nil
}

func sessionTrace(t *testing.T, name string, algo Algorithm, in *Instance) string {
	t.Helper()
	sess, err := NewSession(in, algo, WithSeed(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderTrace(name, algo, in,
		sess.Arrive, sess.Done, sess.Latency, func() []float64 { return sess.Credits(nil) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func platformTrace(t *testing.T, name string, algo Algorithm, in *Instance) string {
	t.Helper()
	plat, err := NewPlatform(in, algo, WithShards(1), WithSeed(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	if plat.Shards() != 1 {
		t.Fatalf("expected 1 shard, got %d", plat.Shards())
	}
	got, err := renderTrace(name, algo, in,
		plat.CheckIn, plat.Done, plat.Latency, func() []float64 { return plat.Credits(nil) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// platformBatchTrace replays the stream through a 1-shard Platform in
// CheckInBatch chunks of the given size. The truncating batch contract
// (ingestion stops with the worker completing the last task; the tail is
// unobserved) makes the rendered bytes directly comparable with the
// per-call Session trace.
func platformBatchTrace(t *testing.T, name string, algo Algorithm, in *Instance, batch int) string {
	t.Helper()
	plat, err := NewPlatform(in, algo, WithShards(1), WithSeed(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	writeTraceHeader(&b, name, algo, in)
	for i := 0; i < len(in.Workers) && !plat.Done(); i += batch {
		j := i + batch
		if j > len(in.Workers) {
			j = len(in.Workers)
		}
		res, err := plat.CheckInBatch(in.Workers[i:j])
		if err != nil && !errors.Is(err, ErrPlatformDone) {
			t.Fatalf("batch at worker %d: %v", i+1, err)
		}
		for _, rec := range res {
			writeArrivalLine(&b, rec.Worker, rec.Tasks())
		}
	}
	writeTraceFooter(&b, plat.Done(), plat.Latency(), plat.Credits(nil))
	return b.String()
}

// TestGoldenTraces pins Session behaviour to the recorded fixtures and —
// the dispatch-layer equivalence contract — requires the 1-shard Platform
// to reproduce the exact same bytes, including per-task credit bit
// patterns, through the per-call path and through CheckInBatch at several
// batch sizes.
func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		in, err := gc.cfg().Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range goldenAlgorithms {
			name := fmt.Sprintf("%s-%s", gc.name, algo)
			t.Run(name, func(t *testing.T) {
				path := filepath.Join("testdata", "golden", name+".trace")
				sess := sessionTrace(t, gc.name, algo, in)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(sess), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to record): %v", err)
				}
				if !bytes.Equal(want, []byte(sess)) {
					t.Errorf("Session trace diverged from %s\n%s", path, diffHint(want, []byte(sess)))
				}
				plat := platformTrace(t, gc.name, algo, in)
				if !bytes.Equal(want, []byte(plat)) {
					t.Errorf("1-shard Platform trace diverged from %s\n%s", path, diffHint(want, []byte(plat)))
				}
				for _, batch := range []int{1, 7, 64} {
					got := platformBatchTrace(t, gc.name, algo, in, batch)
					if !bytes.Equal(want, []byte(got)) {
						t.Errorf("CheckInBatch(%d) trace diverged from %s\n%s", batch, path, diffHint(want, []byte(got)))
					}
				}
			})
		}
	}
}

// diffHint locates the first differing line for a readable failure message.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
