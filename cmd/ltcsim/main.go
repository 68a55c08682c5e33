// Command ltcsim runs a single LTC instance through every algorithm and
// reports the paper's three metrics side by side, then audits answer
// quality with the weighted-majority voting simulator — a one-stop sanity
// check that the latency/quality trade-off behaves as published. With
// -churn it also replays a dynamic-task scenario through ReplayChurn, on a
// sharded Platform when -shards or -balanced ask for one.
//
// The sharded replay of a static instance is `ltcbench -exp scenarios`
// (throughput beside global latency per scenario × shards × layout; run it
// under GOMAXPROCS=1 for the deterministic sequential-feed latency).
//
// Examples:
//
//	ltcsim
//	ltcsim -tasks 100 -workers 2000 -k 4 -epsilon 0.14
//	ltcsim -city newyork -scale 0.01
//	ltcsim -churn 0.4 -ttl 500 -shards 4                                 # dynamic tasks, 4 striped shards
//	ltcsim -scenario flashcrowd -churn 0.4 -ttl 500 -shards 8 -balanced  # skewed, load-aware layout
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"ltc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltcsim: ")

	var (
		tasks    = flag.Int("tasks", 150, "number of tasks (synthetic)")
		workers  = flag.Int("workers", 2000, "number of workers (synthetic)")
		k        = flag.Int("k", 6, "worker capacity K")
		epsilon  = flag.Float64("epsilon", 0.10, "tolerable error rate ε")
		seed     = flag.Uint64("seed", 1, "generation seed")
		city     = flag.String("city", "", "use a check-in trace instead: newyork or tokyo")
		scale    = flag.Float64("scale", 0.01, "city trace scale factor")
		trials   = flag.Int("trials", 200, "voting simulation trials")
		scenario = flag.String("scenario", "", "use a named synthetic workload: uniform, hotspot, flashcrowd, rushhour or sparse-frontier")
		churn    = flag.Float64("churn", 0, "also run a dynamic-task scenario posting this fraction of tasks online (0 disables)")
		shards   = flag.Int("shards", 0, "with -churn: replay on a Platform with this many shards (0 = one)")
		balanced = flag.Bool("balanced", false, "with -churn: use the load-aware balanced tile→shard layout instead of fixed striping")
		ttl      = flag.Int("ttl", 0, "task TTL in worker arrivals for -churn (0 = no expiry)")
	)
	flag.Parse()

	if err := checkFlags(*city, *scenario, *churn, *shards, *balanced); err != nil {
		log.Fatal(err)
	}
	in, err := buildInstance(*city, *scenario, *scale, *tasks, *workers, *k, *epsilon, *seed)
	if err != nil {
		log.Fatal(err)
	}
	label := ""
	if *scenario != "" {
		label = fmt.Sprintf(" [%s scenario]", *scenario)
	}
	fmt.Printf("instance%s: %d tasks, %d workers, K=%d, ε=%.2f (δ=%.2f)\n\n",
		label, len(in.Tasks), len(in.Workers), in.K, in.Epsilon, in.Delta())

	ci := ltc.NewCandidateIndex(in)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tkind\tlatency\tworkers used\truntime\talloc MB\tempirical err")
	for _, algo := range ltc.Algorithms() {
		res, err := ltc.Solve(in, algo, ltc.WithIndex(ci), ltc.WithSeed(*seed))
		if err != nil && !errors.Is(err, ltc.ErrIncomplete) {
			log.Fatalf("%s: %v", algo, err)
		}
		rep := ltc.VerifyQuality(in, res.Arrangement, *trials, *seed)
		kind := "offline"
		if algo.IsOnline() {
			kind = "online"
		}
		mark := ""
		if !res.Completed {
			mark = "*"
		}
		fmt.Fprintf(w, "%s\t%s\t%d%s\t%d\t%v\t%.2f\t%.4f\n",
			algo, kind, res.Latency, mark, res.Arrangement.WorkersUsed(),
			res.Elapsed.Round(1000), float64(res.AllocBytes)/(1<<20), rep.ErrorRate)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall empirical error rates must sit below ε = %.2f (Hoeffding completion rule)\n", in.Epsilon)

	if *churn > 0 {
		if err := runChurn(os.Stdout, *tasks, *workers, *k, *epsilon, *seed, *churn, *ttl, *shards, *scenario, *balanced); err != nil {
			log.Fatal(err)
		}
	}
}

// checkFlags rejects flag combinations before any work starts, so a bad
// invocation fails at once instead of after the whole algorithm table.
func checkFlags(city, scenario string, churn float64, shards int, balanced bool) error {
	switch {
	case scenario != "" && city != "":
		return errors.New("-scenario and -city are mutually exclusive")
	case churn > 0 && city != "":
		return errors.New("-churn only supports synthetic workloads")
	case churn <= 0 && (shards != 0 || balanced):
		return errors.New("-shards and -balanced only apply to the -churn replay; " +
			"for a sharded replay of a static instance run `ltcbench -exp scenarios` " +
			"(under GOMAXPROCS=1 for the deterministic sequential-feed latency)")
	}
	return nil
}

// runChurn replays a dynamic task lifecycle scenario: a fraction of the
// tasks is posted online (Poisson on the arrival clock) and optionally
// expires after a TTL. With a named -scenario the posts and the stream
// follow its skewed placement (Scenario.GenerateChurn). Reported are the
// paper's absolute latency and the lifecycle-aware relative latency
// (worker index − task post index).
func runChurn(out io.Writer, tasks, workers, k int, epsilon float64, seed uint64, churnFrac float64, ttl, shards int, scenario string, balanced bool) error {
	cc := ltc.DefaultChurn(syntheticConfig(tasks, workers, k, epsilon, seed))
	cc.InitialFraction = 1 - churnFrac
	if cc.InitialFraction <= 0 {
		// -churn 1: everything posted online except the single seed task the
		// generator keeps (spatial partitioning needs at least one).
		cc.InitialFraction = 1e-9
	}
	cc.TTL = ttl
	cc.Seed = seed
	var cw *ltc.ChurnWorkload
	var err error
	if scenario != "" {
		var s ltc.Scenario
		if s, err = ltc.NewScenario(scenario, cc.Base); err == nil {
			cw, err = s.GenerateChurn(cc)
		}
	} else {
		cw, err = cc.Generate()
	}
	if err != nil {
		return err
	}
	if shards <= 0 {
		shards = 1
	}
	opts := []ltc.Option{ltc.WithShards(shards), ltc.WithSeed(seed)}
	if balanced {
		opts = append(opts, ltc.WithBalancedShards())
	}
	fmt.Fprintf(out, "\ndynamic tasks (%d initial, %d posted online, TTL %d, %d shards):\n",
		cw.InitialTasks, cw.TotalTasks-cw.InitialTasks, ttl, shards)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tabs latency\trel latency\tcompleted\texpired")
	for _, algo := range ltc.Algorithms() {
		if !algo.IsOnline() {
			continue
		}
		rep, err := ltc.ReplayChurn(cw, algo, opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d/%d\t%d\n",
			algo, rep.AbsoluteLatency, rep.RelativeLatency, rep.Completed, cw.TotalTasks, rep.Expired)
	}
	return w.Flush()
}

// syntheticConfig builds the Table IV-shaped workload for arbitrary
// task/worker counts, keeping Table IV's spatial worker density so the
// counts stay feasible: grid area scales with the worker count.
func syntheticConfig(tasks, workers, k int, epsilon float64, seed uint64) ltc.WorkloadConfig {
	cfg := ltc.DefaultWorkload()
	cfg.NumTasks = tasks
	cfg.NumWorkers = workers
	cfg.K = k
	cfg.Epsilon = epsilon
	cfg.Seed = seed
	side := math.Sqrt(float64(workers) / 40000.0)
	cfg.GridWidth *= side
	cfg.GridHeight *= side
	return cfg
}

func buildInstance(city, scenario string, scale float64, tasks, workers, k int, epsilon float64, seed uint64) (*ltc.Instance, error) {
	switch city {
	case "":
		cfg := syntheticConfig(tasks, workers, k, epsilon, seed)
		if scenario == "" {
			return cfg.Generate()
		}
		s, err := ltc.NewScenario(scenario, cfg)
		if err != nil {
			return nil, err
		}
		return s.Generate()
	case "newyork", "tokyo":
		cfg := ltc.NewYork()
		if city == "tokyo" {
			cfg = ltc.Tokyo()
		}
		cfg = cfg.Scale(scale)
		cfg.Epsilon = epsilon
		cfg.K = k
		cfg.Seed = seed
		tr, err := ltc.GenerateCity(cfg)
		if err != nil {
			return nil, err
		}
		return tr.Instance, nil
	default:
		return nil, fmt.Errorf("unknown city %q (want newyork or tokyo)", city)
	}
}
