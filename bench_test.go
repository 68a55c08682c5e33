package ltc

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltc/internal/core"
	"ltc/internal/geo"
	"ltc/internal/model"
)

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

// BenchmarkNewPlatform measures building a platform on Table IV's default
// instance with 8 shards, striped over uniform traffic and balanced over a
// hotspot: partition, per-shard candidate grids, engines and the dispatcher.
// Construction allocates per shard, not per task, so allocs/op stays near
// constant as |T| grows.
func BenchmarkNewPlatform(b *testing.B) {
	for _, c := range []struct {
		name, kind string
		opts       []Option
	}{
		{"striped-uniform", ScenarioUniform, []Option{WithShards(8)}},
		{"balanced-hotspot", ScenarioHotspot, []Option{WithShards(8), WithBalancedShards()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultWorkload()
			cfg.Seed = 42
			scn, err := NewScenario(c.kind, cfg)
			if err != nil {
				b.Fatal(err)
			}
			in, err := scn.Generate()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := NewPlatform(in, AAM, c.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAAMArriveHotCell measures one AAM arrival on a hot cell: 500 open
// tasks in one grid cell, hundreds of them in every worker's disc, K = 6. It
// reports how many hits an arrival's disc holds and how many of them the
// accuracy model is asked about. ε is tiny so that δ is large and no task
// completes within one pass over the workers; the solver is rebuilt at the
// start of every pass, so the counts do not drift with b.N.
func BenchmarkAAMArriveHotCell(b *testing.B) { benchAAMArrive(b, 25, 0, 25) }

// BenchmarkAAMArriveHotWindow is BenchmarkAAMArriveHotCell with the 500 tasks
// spread over 3 × 3 cells and the workers in the middle one, so every
// arrival's walk crosses up to nine cells: the order in which the walk
// visits them shows in the time and in how many hits the model is asked
// about.
func BenchmarkAAMArriveHotWindow(b *testing.B) { benchAAMArrive(b, 90, 30, 30) }

// benchAAMArrive runs AAM arrivals over 500 tasks uniform on [0, taskSpan)²
// and 4096 workers uniform on [workerLo, workerLo+workerSpan)², with an
// eligibility radius, and so a grid cell side, of 30.
func benchAAMArrive(b *testing.B, taskSpan, workerLo, workerSpan float64) {
	rng := rand.New(rand.NewPCG(500, 6))
	in := &Instance{Epsilon: 1e-300, K: 6, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 500; i++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * taskSpan, Y: rng.Float64() * taskSpan}})
	}
	for i := 1; i <= 4096; i++ {
		loc := geo.Point{X: workerLo + rng.Float64()*workerSpan, Y: workerLo + rng.Float64()*workerSpan}
		in.Workers = append(in.Workers, Worker{Index: i, Loc: loc, Acc: 0.7 + rng.Float64()*0.3})
	}
	ci := NewCandidateIndex(in)
	var aam *core.AAM
	hits, evaluated := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(in.Workers)
		if w == 0 {
			if aam != nil {
				h, e := aam.QueryCounts()
				hits, evaluated = hits+h, evaluated+e
			}
			aam = core.NewAAM(in, ci)
		}
		aam.Arrive(in.Workers[w])
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
// CheckInBatch, so each shard's workers in a 64-worker window share one
// lock acquisition. Compare against BenchmarkPlatformCheckIn's per-call numbers.
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
