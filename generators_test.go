package ltc

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"ltc/internal/checkin"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// TestGeneratorsPinned pins the absolute output of every instance
// generator: each scenario kind, the churn split over a scaled Table IV
// base, and both Table V city presets, at two seeds. Every other generator
// test compares runs with each other; this one fails if any task, worker or
// lifecycle event moves by a single bit. A deliberate generator change must
// re-record the hashes and say why.
func TestGeneratorsPinned(t *testing.T) {
	want := map[string]string{
		"uniform/1":          "1310756346d78915",
		"hotspot/1":          "5636fd8b914921c1",
		"flashcrowd/1":       "d2d0425b45025606",
		"rushhour/1":         "59660a7f4e755fad",
		"sparse-frontier/1":  "c3fe2d1a238abea7",
		"churn-ttl0/1":       "ab3f9e3457de93c8",
		"churn-ttl300/1":     "ed26810ea448c0d4",
		"NewYork/1":          "3ae1e84e6a9077b6",
		"Tokyo/1":            "22d759536bbc8922",
		"uniform/42":         "ad5a7def5a2a555a",
		"hotspot/42":         "379fd1fab1f45eef",
		"flashcrowd/42":      "229150fec636cf0e",
		"rushhour/42":        "049d807856ee4d77",
		"sparse-frontier/42": "3c5bb69f42b773a5",
		"churn-ttl0/42":      "f6396e353ba81391",
		"churn-ttl300/42":    "e817ecd7188b8fcb",
		"NewYork/42":         "ccc73357a9fdeab0",
		"Tokyo/42":           "651ac1397ed532d5",
	}
	got := map[string]string{}
	for _, seed := range []uint64{1, 42} {
		base := workload.Default().Scale(0.01)
		base.Seed = seed
		for _, kind := range workload.ScenarioKinds() {
			s, err := workload.NewScenario(kind, base)
			if err != nil {
				t.Fatal(err)
			}
			in, err := s.Generate()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			h := fnv.New64a()
			hashInstance(h, in)
			got[fmt.Sprintf("%s/%d", kind, seed)] = fmt.Sprintf("%016x", h.Sum64())
		}

		for _, ttl := range []int{0, 300} {
			cc := workload.DefaultChurn(base)
			cc.TTL = ttl
			cw, err := cc.Generate()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			hashInstance(h, cw.Instance)
			for _, e := range cw.Events {
				hashInts(h, int64(e.Arrival), int64(e.Kind), int64(e.Task.ID), int64(e.ID))
				hashFloats(h, e.Task.Loc.X, e.Task.Loc.Y)
			}
			got[fmt.Sprintf("churn-ttl%d/%d", ttl, seed)] = fmt.Sprintf("%016x", h.Sum64())
		}

		for _, city := range checkin.Cities() {
			c := city.Scale(0.01)
			c.Seed = seed
			tr, err := checkin.Generate(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			h := fnv.New64a()
			hashInstance(h, tr.Instance)
			got[fmt.Sprintf("%s/%d", c.Name, seed)] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: hash %s, want %s", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d generated instances, %d pinned", len(got), len(want))
	}
}

// hashInstance folds every task, worker and instance parameter into h.
func hashInstance(h hash.Hash64, in *model.Instance) {
	hashInts(h, int64(len(in.Tasks)), int64(len(in.Workers)), int64(in.K))
	hashFloats(h, in.Epsilon, in.MinAcc, in.Model.(model.SigmoidDistance).DMax)
	for _, task := range in.Tasks {
		hashInts(h, int64(task.ID))
		hashFloats(h, task.Loc.X, task.Loc.Y)
	}
	for _, w := range in.Workers {
		hashInts(h, int64(w.Index))
		hashFloats(h, w.Loc.X, w.Loc.Y, w.Acc)
	}
}

func hashInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
}
