package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// The fence around the two things an arrival no longer pays for: the dense
// need scan (TestAAMRuleMatchesDenseScan) and settled tasks in the candidate
// index (TestEngineIndexHoldsOpenTasks, FuzzEngineOpenIndex).

// ruleCases are the streams the switching rule is checked on: the three
// golden-trace workloads (golden_test.go's configs), Table IV at a quarter
// scale, and a churn plan with late posts and expiries. A static instance is
// a churn workload without events.
func ruleCases(t *testing.T) map[string]*workload.ChurnWorkload {
	t.Helper()
	static := func(cfg workload.Config) *workload.ChurnWorkload {
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return &workload.ChurnWorkload{Instance: in}
	}
	k4 := workload.Default().Scale(0.01)
	k4.K, k4.Epsilon, k4.Seed = 4, 0.14, 2
	uniform := workload.Default().Scale(0.01)
	uniform.Accuracy = workload.AccuracyDist{Kind: workload.DistUniform, Mean: 0.86, Spread: 0.10}
	uniform.Seed = 3
	churn := workload.DefaultChurn(workload.Default().Scale(0.05))
	churn.TTL = 400
	cw, err := churn.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*workload.ChurnWorkload{
		"tableiv-default-x001":   static(workload.Default().Scale(0.01)),
		"tableiv-k4-eps014-x001": static(k4),
		"tableiv-uniform-x001":   static(uniform),
		"tableiv-default-x025":   static(workload.Default().Scale(0.25)),
		"churn-x005-ttl400":      cw,
	}
}

// replayAAM feeds cw to a fresh AAM engine the way ltc.ReplayChurn feeds a
// one-shard platform — each lifecycle event fires once its arrival tick is
// reached — and calls arrive, which must call eng.Arrive(w), per worker.
func replayAAM(t *testing.T, cw *workload.ChurnWorkload, arrive func(eng *Engine, aam *AAM, w model.Worker)) *AAM {
	t.Helper()
	in := *cw.Instance
	in.Tasks = slices.Clone(in.Tasks) // posts append to the engine's own table
	eng := NewEngine(&in, model.NewCandidateIndex(&in), func(in *model.Instance, ci *model.CandidateIndex) Online {
		return NewAAM(in, ci)
	})
	aam := eng.algo.(*AAM)
	next := 0
	fire := func(arrived int) {
		for ; next < len(cw.Events) && cw.Events[next].Arrival <= arrived; next++ {
			switch e := cw.Events[next]; e.Kind {
			case workload.EventPost:
				task := model.Task{ID: model.TaskID(len(in.Tasks)), Loc: e.Task.Loc}
				in.Tasks = append(in.Tasks, task)
				if err := eng.PostTask(task, arrived); err != nil {
					t.Fatal(err)
				}
			case workload.EventRetire:
				if _, err := eng.RetireTask(e.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fire(0)
	for i, w := range in.Workers {
		if eng.Done() && next == len(cw.Events) {
			break
		}
		if !eng.Done() {
			arrive(eng, aam, w)
		}
		fire(i + 1)
	}
	return aam
}

// TestAAMRuleMatchesDenseScan: on every arrival the branch AAM takes is the
// one the dense scan's sum and maximum dictate, needSum stays within the
// bound taskState's comment states, and a solver that scans on every
// arrival ends with the same strategy counts and the same assignments.
func TestAAMRuleMatchesDenseScan(t *testing.T) {
	for name, cw := range ruleCases(t) {
		t.Run(name, func(t *testing.T) {
			skipped, scanned := 0, 0
			got := replayAAM(t, cw, func(eng *Engine, aam *AAM, w model.Worker) {
				st := aam.state
				sum, maxNeed := st.totalNeed()
				n := float64(len(st.arr.Accumulated))
				if bound := (float64(st.needWrites) + n) * 0x1p-52 * n * st.delta; math.Abs(st.needSum-sum) > bound {
					t.Fatalf("worker %d: needSum %v, dense Σ %v: apart by more than %v after %d writes",
						w.Index, st.needSum, sum, bound, st.needWrites)
				}
				if st.needSum >= 2*float64(aam.in.K)*st.delta {
					skipped++
				} else {
					scanned++
				}
				wantLGF := sum/float64(aam.in.K) >= maxNeed
				lgf, _ := aam.StrategyCounts()
				eng.Arrive(w)
				if after, _ := aam.StrategyCounts(); (after == lgf+1) != wantLGF {
					t.Fatalf("worker %d: took LGF = %t, the dense scan says %t (Σ %v, max %v)",
						w.Index, after == lgf+1, wantLGF, sum, maxNeed)
				}
			})
			if skipped == 0 || scanned == 0 {
				t.Fatalf("%d arrivals decided from needSum, %d by the scan: both branches must run", skipped, scanned)
			}
			want := replayAAM(t, cw, func(eng *Engine, aam *AAM, w model.Worker) {
				aam.state.needWrites = needResync // due for a scan: the dense path
				eng.Arrive(w)
			})
			gl, gr := got.StrategyCounts()
			wl, wr := want.StrategyCounts()
			if gl != wl || gr != wr {
				t.Fatalf("StrategyCounts %d/%d, always-scanning solver %d/%d", gl, gr, wl, wr)
			}
			if !slices.Equal(got.state.arr.Pairs, want.state.arr.Pairs) ||
				!slices.Equal(got.state.arr.Accumulated, want.state.arr.Accumulated) {
				t.Fatal("arrangement differs from the always-scanning solver's")
			}
		})
	}
}

// driveOpenIndex interprets data as a sequence of arrive / post / retire /
// migrate operations on two AAM engines that pass tasks between each other,
// and after every operation checks both: a candidate query returns exactly
// the eligible tasks the ledger still holds open, with the credit a direct
// prediction gives, and the index's live count is the ledger's open count.
func driveOpenIndex(t *testing.T, data []byte) {
	const side = 120 // four radii across: most workers reach a few tasks
	rng := rand.New(rand.NewPCG(uint64(len(data)), 0x6f70656e))
	point := func() geo.Point { return geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side} }
	base := &model.Instance{Epsilon: 0.3, K: 2, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 16; i++ {
		base.Tasks = append(base.Tasks, model.Task{ID: model.TaskID(i), Loc: point()})
	}
	f := func(in *model.Instance, ci *model.CandidateIndex) Online { return NewAAM(in, ci) }
	shards := [2]*migrationShard{
		newMigrationShard(base, base.Tasks[:8], f),
		newMigrationShard(base, base.Tasks[8:], f),
	}
	probes := make([]model.Worker, 8)
	for i := range probes {
		probes[i] = model.Worker{Index: 1, Loc: point(), Acc: 0.9}
	}

	check := func(op int) {
		t.Helper()
		var got, want []model.Candidate
		for si, s := range shards {
			if live, open := s.ci.NumLive(), s.eng.state.remaining; live != open {
				t.Fatalf("op %d shard %d: %d tasks live in the index, %d open in the ledger", op, si, live, open)
			}
			for _, w := range probes {
				got, want = s.ci.Candidates(w, got[:0]), want[:0]
				for _, task := range s.in.Tasks {
					if acc, ok := s.in.Eligible(w, task); ok && !s.eng.state.done(task.ID) {
						want = append(want, model.Candidate{Task: task.ID, Acc: acc, AccStar: model.AccStar(acc)})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d shard %d worker at %v: candidates %v, open eligible tasks %v", op, si, w.Loc, got, want)
				}
			}
		}
	}

	check(-1)
	index := 0
	for op, b := range data {
		s, other := shards[b>>3&1], shards[b>>3&1^1]
		target := model.TaskID(int(b>>4) % len(s.in.Tasks))
		switch b & 7 {
		case 0: // post
			if err := s.eng.PostTask(s.appendTask(point()), index); err != nil {
				t.Fatal(err)
			}
		case 1: // retire
			if _, err := s.eng.RetireTask(target); err != nil {
				t.Fatal(err)
			}
		case 2: // migrate to the other shard, unless the task is settled
			snap, open, err := s.eng.EvictTask(target)
			if err != nil {
				t.Fatal(err)
			}
			if !open {
				continue
			}
			if err := other.eng.AdoptTask(other.appendTask(s.in.Tasks[target].Loc), snap); err != nil {
				t.Fatal(err)
			}
		default: // arrive, the common case
			index++
			s.eng.Arrive(model.Worker{Index: index, Loc: point(), Acc: 0.75 + rng.Float64()/4})
		}
		check(op)
	}
}

func TestEngineIndexHoldsOpenTasks(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for run := 0; run < 12; run++ {
		data := make([]byte, 300+run)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		driveOpenIndex(t, data)
	}
}

func FuzzEngineOpenIndex(f *testing.F) {
	f.Add([]byte{3, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 10, 26, 42, 7, 15})
	f.Add([]byte("complete, migrate, retire, post and arrive again"))
	f.Fuzz(driveOpenIndex)
}
