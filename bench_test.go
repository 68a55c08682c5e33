package ltc

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/core"
	"ltc/internal/experiments"
	"ltc/internal/flow"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// Experiment benchmarks — one per paper figure column (each column covers
// three panels: latency, runtime, memory). Every iteration runs the whole
// sweep at a small scale; `cmd/ltcbench` runs the same sweeps at larger
// scales with repetitions and prints the paper-style tables.

func benchExperiment(b *testing.B, id string, scale float64, algos ...string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Scale: scale, Reps: 1, Seed: 42, Algorithms: algos}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Tasks regenerates Fig. 3a/3e/3i (varying |T|).
func BenchmarkFig3Tasks(b *testing.B) { benchExperiment(b, "fig3-tasks", 0.01) }

// BenchmarkFig3Capacity regenerates Fig. 3b/3f/3j (varying K).
func BenchmarkFig3Capacity(b *testing.B) { benchExperiment(b, "fig3-capacity", 0.01) }

// BenchmarkFig3AccNormal regenerates Fig. 3c/3g/3k (Normal accuracy µ).
func BenchmarkFig3AccNormal(b *testing.B) { benchExperiment(b, "fig3-accnormal", 0.01) }

// BenchmarkFig3AccUniform regenerates Fig. 3d/3h/3l (Uniform accuracy mean).
func BenchmarkFig3AccUniform(b *testing.B) { benchExperiment(b, "fig3-accuniform", 0.01) }

// BenchmarkFig4Epsilon regenerates Fig. 4a/4e/4i (varying ε).
func BenchmarkFig4Epsilon(b *testing.B) { benchExperiment(b, "fig4-epsilon", 0.01) }

// BenchmarkFig4Scalability regenerates Fig. 4b/4f/4j (|T| up to 100k at
// full scale; benchmarked at 0.5% so each iteration stays in seconds).
func BenchmarkFig4Scalability(b *testing.B) { benchExperiment(b, "fig4-scalability", 0.005) }

// BenchmarkFig4NewYork regenerates Fig. 4c/4g/4k (New York trace).
func BenchmarkFig4NewYork(b *testing.B) { benchExperiment(b, "fig4-newyork", 0.01) }

// BenchmarkFig4Tokyo regenerates Fig. 4d/4h/4l (Tokyo trace).
func BenchmarkFig4Tokyo(b *testing.B) { benchExperiment(b, "fig4-tokyo", 0.005) }

// Per-algorithm benchmarks on a fixed Table IV instance (default setting at
// 5% scale): the per-run cost behind Fig. 3e/3i's algorithm ordering.

func benchInstance(b *testing.B) (*Instance, *CandidateIndex) {
	b.Helper()
	cfg := DefaultWorkload().Scale(0.05)
	cfg.Seed = 42
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return in, NewCandidateIndex(in)
}

func benchAlgorithm(b *testing.B, algo Algorithm) {
	b.Helper()
	in, ci := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	var latency int
	for i := 0; i < b.N; i++ {
		res, err := Solve(in, algo, WithIndex(ci), WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		latency = res.Latency
	}
	b.ReportMetric(float64(latency), "latency")
}

func BenchmarkAlgorithmBaseOff(b *testing.B) { benchAlgorithm(b, BaseOff) }
func BenchmarkAlgorithmMCFLTC(b *testing.B)  { benchAlgorithm(b, MCFLTC) }
func BenchmarkAlgorithmRandom(b *testing.B)  { benchAlgorithm(b, RandomAssign) }
func BenchmarkAlgorithmLAF(b *testing.B)     { benchAlgorithm(b, LAF) }
func BenchmarkAlgorithmAAM(b *testing.B)     { benchAlgorithm(b, AAM) }

// Ablation benchmarks for the design choices README "Design notes" calls out.

// BenchmarkAblationAAMStrategies compares the published hybrid switching
// rule against LGF-only and LRF-only scoring: the hybrid's latency should
// match the better of the two extremes on each workload.
func BenchmarkAblationAAMStrategies(b *testing.B) {
	for _, s := range []struct {
		name     string
		strategy core.AAMStrategy
	}{
		{"Hybrid", core.StrategyHybrid},
		{"LGFOnly", core.StrategyLGFOnly},
		{"LRFOnly", core.StrategyLRFOnly},
	} {
		b.Run(s.name, func(b *testing.B) {
			in, ci := benchInstance(b)
			b.ReportAllocs()
			b.ResetTimer()
			var latency int
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnline(in, ci, func(in *model.Instance, ci *model.CandidateIndex) core.Online {
					return core.NewAAMWithStrategy(in, ci, s.strategy)
				})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency")
		})
	}
}

// BenchmarkAblationMCFBatch sweeps MCF-LTC's batch-size multiplier: smaller
// batches track the worker stream more closely (lower latency, more flow
// solves); larger batches amortise the flow cost.
func BenchmarkAblationMCFBatch(b *testing.B) {
	for _, mult := range []float64{0.25, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("mult=%.2f", mult), func(b *testing.B) {
			in, ci := benchInstance(b)
			b.ReportAllocs()
			b.ResetTimer()
			var latency int
			for i := 0; i < b.N; i++ {
				res, err := core.RunOffline(in, ci, &core.MCFLTC{BatchMultiplier: mult})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency")
		})
	}
}

// BenchmarkAblationSSPAAugment compares bottleneck augmentation against
// unit-flow augmentation inside MCF-LTC's SSPA (identical arrangements,
// different augmentation counts).
func BenchmarkAblationSSPAAugment(b *testing.B) {
	for _, u := range []struct {
		name string
		unit bool
	}{{"Bottleneck", false}, {"UnitFlow", true}} {
		b.Run(u.name, func(b *testing.B) {
			in, ci := benchInstance(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunOffline(in, ci, &core.MCFLTC{UnitAugment: u.unit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSSPAEngine compares the Dijkstra-with-potentials engine
// against the SPFA reference engine.
func BenchmarkAblationSSPAEngine(b *testing.B) {
	for _, e := range []struct {
		name   string
		engine flow.Engine
	}{{"Dijkstra", flow.EngineDijkstra}, {"SPFA", flow.EngineSPFA}} {
		b.Run(e.name, func(b *testing.B) {
			in, ci := benchInstance(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunOffline(in, ci, &core.MCFLTC{Engine: e.engine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEligibility sweeps the MinAcc eligibility threshold
// (README "Design notes"): 0.50 puts the radius exactly at dmax; stricter values
// shrink candidate sets and push latency up.
func BenchmarkAblationEligibility(b *testing.B) {
	for _, minAcc := range []float64{0.50, 0.66, 0.78} {
		b.Run(fmt.Sprintf("minAcc=%.2f", minAcc), func(b *testing.B) {
			cfg := DefaultWorkload().Scale(0.05)
			cfg.Seed = 42
			cfg.MinAcc = minAcc
			in, err := cfg.Generate()
			if err != nil {
				b.Fatal(err)
			}
			ci := NewCandidateIndex(in)
			b.ReportAllocs()
			b.ResetTimer()
			var latency float64
			for i := 0; i < b.N; i++ {
				res, err := Solve(in, AAM, WithIndex(ci))
				if err != nil && res == nil {
					b.Fatal(err)
				}
				latency = float64(res.Latency)
			}
			b.ReportMetric(latency, "latency")
		})
	}
}

// BenchmarkCandidateIndex measures the per-worker eligibility query, the
// inner loop of every online algorithm, on Table IV's default instance with
// every task live: uniform traffic finds a few hits in a window of small
// cells, a hotspot's worker hundreds in one cell.
func BenchmarkCandidateIndex(b *testing.B) {
	for _, kind := range []string{ScenarioUniform, ScenarioHotspot} {
		b.Run(kind, func(b *testing.B) {
			cfg := DefaultWorkload()
			cfg.Seed = 42
			scn, err := NewScenario(kind, cfg)
			if err != nil {
				b.Fatal(err)
			}
			in, err := scn.Generate()
			if err != nil {
				b.Fatal(err)
			}
			ci := NewCandidateIndex(in)
			var buf []Candidate
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ci.Candidates(in.Workers[i%len(in.Workers)], buf[:0])
				hits += len(buf)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "candidates/op")
		})
	}
}

// BenchmarkAAMArriveHotCell measures one AAM arrival on a hot cell: 500 open
// tasks in one grid cell, hundreds of them in every worker's disc, K = 6. It
// reports how many hits an arrival's disc holds and how many of them the
// accuracy model is asked about. ε is tiny so that δ is large and the cell
// stays hot for the whole run; the solver is rebuilt if it ever finishes.
func BenchmarkAAMArriveHotCell(b *testing.B) {
	rng := rand.New(rand.NewPCG(500, 6))
	in := &Instance{Epsilon: 1e-300, K: 6, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 500; i++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}})
	}
	for i := 1; i <= 4096; i++ {
		in.Workers = append(in.Workers, Worker{Index: i, Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}, Acc: 0.7 + rng.Float64()*0.3})
	}
	ci := NewCandidateIndex(in)
	aam := core.NewAAM(in, ci)
	hits, evaluated := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if aam.Done() {
			h, e := aam.QueryCounts()
			hits, evaluated = hits+h, evaluated+e
			aam = core.NewAAM(in, ci)
		}
		aam.Arrive(in.Workers[i%len(in.Workers)])
	}
	h, e := aam.QueryCounts()
	b.ReportMetric(float64(hits+h)/float64(b.N), "hits/op")
	b.ReportMetric(float64(evaluated+e)/float64(b.N), "evaluated/op")
}

// BenchmarkPlatformCheckIn measures the sharded dispatch layer's check-in
// throughput: GOMAXPROCS goroutines feed one Platform the full worker
// stream (restarting with a fresh Platform whenever the workload
// completes), so higher shard counts translate directly into less lock
// contention and more workers/sec. The shards=1 case is the single-engine
// baseline the ISSUE's acceptance criterion compares against.
func BenchmarkPlatformCheckIn(b *testing.B) {
	cfg := DefaultWorkload().Scale(0.05)
	cfg.Seed = 42
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			feeders := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			b.ResetTimer()
			checkins := 0
			for checkins < b.N {
				plat, err := NewPlatform(in, AAM, WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				var cursor, fed atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < feeders; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(cursor.Add(1)) - 1
							if i >= len(in.Workers) || plat.Done() {
								return
							}
							if _, err := plat.CheckIn(in.Workers[i]); err != nil {
								return // ErrPlatformDone under contention
							}
							fed.Add(1)
						}
					}()
				}
				wg.Wait()
				checkins += int(fed.Load())
			}
			b.StopTimer()
			b.ReportMetric(float64(checkins)/b.Elapsed().Seconds(), "workers/s")
			// b.N undershoots the real work when the last stream overshoots;
			// workers/s above is the truthful throughput number.
		})
	}
}

// BenchmarkPlatformCheckInBatch measures the synchronous batched ingestion
// path: feeders claim contiguous chunks of the stream and submit each via
// CheckInBatch, so consecutive same-shard workers share one lock
// acquisition. Compare against BenchmarkPlatformCheckIn's per-call numbers.
func BenchmarkPlatformCheckInBatch(b *testing.B) {
	cfg := DefaultWorkload().Scale(0.05)
	cfg.Seed = 42
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		for _, batch := range []int{64, 256} {
			b.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(b *testing.B) {
				feeders := runtime.GOMAXPROCS(0)
				b.ReportAllocs()
				b.ResetTimer()
				checkins := 0
				for checkins < b.N {
					plat, err := NewPlatform(in, AAM, WithShards(shards))
					if err != nil {
						b.Fatal(err)
					}
					var cursor, fed atomic.Int64
					var wg sync.WaitGroup
					for g := 0; g < feeders; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								i := int(cursor.Add(int64(batch))) - batch
								if i >= len(in.Workers) || plat.Done() {
									return
								}
								j := i + batch
								if j > len(in.Workers) {
									j = len(in.Workers)
								}
								res, err := plat.CheckInBatch(in.Workers[i:j])
								fed.Add(int64(len(res)))
								if err != nil {
									return // truncated: platform completed
								}
							}
						}()
					}
					wg.Wait()
					checkins += int(fed.Load())
				}
				b.StopTimer()
				b.ReportMetric(float64(checkins)/b.Elapsed().Seconds(), "workers/s")
			})
		}
	}
}

// BenchmarkPlatformCheckInAsync measures the fire-and-forget ingestion
// path: feeders enqueue workers into the per-shard bounded queues and the
// shard drainers ingest them in amortized runs; Flush closes each stream.
func BenchmarkPlatformCheckInAsync(b *testing.B) {
	cfg := DefaultWorkload().Scale(0.05)
	cfg.Seed = 42
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			feeders := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			b.ResetTimer()
			checkins := 0
			for checkins < b.N {
				plat, err := NewPlatform(in, AAM, WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				var cursor, fed atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < feeders; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(cursor.Add(1)) - 1
							if i >= len(in.Workers) || plat.Done() {
								return
							}
							if err := plat.CheckInAsync(in.Workers[i]); err != nil {
								return
							}
							fed.Add(1)
						}
					}()
				}
				wg.Wait()
				plat.Flush()
				if err := plat.Close(); err != nil {
					b.Fatal(err)
				}
				checkins += int(fed.Load())
			}
			b.StopTimer()
			b.ReportMetric(float64(checkins)/b.Elapsed().Seconds(), "workers/s")
		})
	}
}

// BenchmarkSessionArrive measures the streaming API's per-arrival cost.
func BenchmarkSessionArrive(b *testing.B) {
	in, ci := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		sess, err := NewSession(in, AAM, WithIndex(ci))
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range in.Workers {
			if sess.Done() || i >= b.N {
				break
			}
			if _, err := sess.Arrive(w); err != nil {
				b.Fatal(err)
			}
			i++
		}
	}
}
