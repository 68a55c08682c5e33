package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ltc"
	"ltc/internal/httpapi"
	"ltc/internal/stats"
	"ltc/internal/workload"
)

// churnTTL is how many arrivals after its post a task of the dynamic
// workload expires.
const churnTTL = 4000

// variants is how many independent instances one seed stands for. The
// paper's objective is a maximum over a few thousand random tasks — on Table
// IV's default its interquartile range across seeds is a fifth of its median,
// and the number of check-ins a pass needs moves with it — so a run that
// measured one instance would mostly report which instance it drew. Pass i
// takes variant i mod variants; the count is odd so that, with pass kinds
// alternating, every variant meets every kind.
const variants = 31

// inputSet is what one seed generates. A variant is generated when a pass
// asks for it and dropped after the pass, so the inputs of one pass are all
// that is ever resident and the run's peak RSS is the platform's, not the
// generator's.
type inputSet struct {
	spec       *workloadSpec
	seed       uint64
	n          int
	hash       string  // digest of all n variants
	stream     int     // longest worker stream among them
	generateMs float64 // generating all n once
}

// newInputSet generates each of the seed's n variants once, to digest them
// and size the per-stream buffers, and keeps none.
func newInputSet(spec *workloadSpec, seed uint64, n int) (*inputSet, error) {
	set := &inputSet{spec: spec, seed: seed, n: n}
	h := fnv.New64a()
	for v := 0; v < n; v++ {
		in, err := set.variant(v)
		if err != nil {
			return nil, err
		}
		set.generateMs += in.generateMs
		set.stream = max(set.stream, len(in.in.Workers))
		_, _ = h.Write([]byte(in.hash))
	}
	set.hash = fmt.Sprintf("%016x", h.Sum64())
	return set, nil
}

// variant generates variant v mod n. Variant 0 uses the seed itself, so it
// is the instance `ltcbench -seed` generates; the others use streams split
// off it.
func (s *inputSet) variant(v int) (*inputs, error) {
	v %= s.n
	seed := s.seed
	if v > 0 {
		seed = stats.SplitSeed(s.seed, uint64(1000+v))
	}
	in, err := generate(s.spec, seed)
	if err != nil {
		return nil, fmt.Errorf("variant %d: %w", v, err)
	}
	return in, nil
}

// inputs is everything the generator hands a workload: the program under
// test sees only these values, never the seed.
type inputs struct {
	spec *workloadSpec
	// in holds the initial task set and the full worker stream.
	in *ltc.Instance
	// churn is the lifecycle plan of the dynamic workload, nil elsewhere.
	churn *ltc.ChurnWorkload
	// wire is the worker stream in wire form (wire workloads only).
	wire []httpapi.Worker
	// hash identifies the generated inputs: same seed, same hash.
	hash string
	// generateMs is how long generation took.
	generateMs float64
}

// generate builds one variant of the workload's inputs from a seed alone.
func generate(spec *workloadSpec, seed uint64) (*inputs, error) {
	t0 := time.Now()
	cfg := workload.Default().Scale(spec.Scale)
	cfg.Seed = seed
	scn, err := workload.NewScenario(spec.Scenario, cfg)
	if err != nil {
		return nil, err
	}
	out := &inputs{spec: spec}
	if spec.Churn {
		cc := workload.DefaultChurn(cfg)
		cc.TTL = churnTTL
		cw, err := scn.GenerateChurn(cc)
		if err != nil {
			return nil, err
		}
		out.churn, out.in = cw, cw.Instance
	} else {
		in, err := scn.Generate()
		if err != nil {
			return nil, err
		}
		out.in = in
	}
	if spec.Mode == modeWireBatch || spec.Mode == modeWireCluster {
		out.wire = make([]httpapi.Worker, len(out.in.Workers))
		for i, w := range out.in.Workers {
			out.wire[i] = httpapi.FromWorker(w)
		}
	}
	out.generateMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	out.hash = hashInputs(out)
	return out, nil
}

// hashInputs folds every generated value the program will see into one
// FNV-64a digest.
func hashInputs(in *inputs) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(in.in.Tasks)))
	for _, t := range in.in.Tasks {
		u64(uint64(t.ID))
		f64(t.Loc.X)
		f64(t.Loc.Y)
	}
	u64(uint64(len(in.in.Workers)))
	for _, w := range in.in.Workers {
		u64(uint64(w.Index))
		f64(w.Loc.X)
		f64(w.Loc.Y)
		f64(w.Acc)
	}
	f64(in.in.Epsilon)
	u64(uint64(in.in.K))
	if in.churn != nil {
		u64(uint64(len(in.churn.Events)))
		for _, e := range in.churn.Events {
			u64(uint64(e.Arrival))
			u64(uint64(e.Kind))
			u64(uint64(e.Task.ID))
			f64(e.Task.Loc.X)
			f64(e.Task.Loc.Y)
			u64(uint64(e.ID))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
