// Command ltcbench regenerates the paper's evaluation tables and figures.
//
// Every panel of Fig. 3 and Fig. 4 maps to one experiment id; `-exp all`
// runs the whole evaluation. Results print in the paper's layout (one
// section per figure panel, one row per algorithm) and can also be dumped
// as long-format CSV for plotting. Beside the paper's evaluation it keeps
// one exploratory sweep (`-exp scenarios`: throughput against the latency it
// costs, per scenario × shards × layout — the command line's one sharded
// replay, fed per-call from GOMAXPROCS feeders, so GOMAXPROCS=1 reads the
// deterministic sequential-feed latency) and one audited smoke driver for a
// running ltcd (`-exp loadgen`). Performance claims, regression gates and
// per-path allocation and CPU costs live in bench/ (`go run ./bench`,
// `go run ./bench -compare`), not here.
//
// Examples:
//
//	ltcbench -list
//	ltcbench -exp fig3-tasks -scale 0.05 -reps 3
//	ltcbench -exp all -scale 0.1 -reps 5 -csv results.csv
//	ltcbench -exp all -parallel 1            # paper-faithful runtime/memory metrics
//	ltcbench -exp table4
//	ltcbench -exp fig4-newyork -algos LAF,AAM,Random
//	ltcbench -exp scenarios -shards 1,8                     # skewed-workload suite, striped vs balanced
//	ltcbench -exp scenarios -scenarios uniform -shards 1,4,16  # plain Table IV dispatch sweep
//	ltcbench -exp scenarios -shards 8,16 -rebalance         # + adaptive live re-sharding cells
//	GOMAXPROCS=1 ltcbench -exp scenarios -shards 1,8        # deterministic sequential-feed latency
//	ltcbench -exp loadgen -url http://127.0.0.1:8080 -scale 0.01
//	ltcbench -exp loadgen -cluster http://127.0.0.1:8080,http://127.0.0.1:8081 -loadgen-batch 64
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"ltc/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltcbench: ")

	var (
		expID     = flag.String("exp", "", "experiment id (see -list), or 'all' for every figure")
		scale     = flag.Float64("scale", 0.05, "dataset scale factor (1.0 = full paper sizes)")
		reps      = flag.Int("reps", 3, "repetitions per sweep point (paper used 30)")
		seed      = flag.Uint64("seed", 42, "base seed")
		algos     = flag.String("algos", "", "comma-separated algorithm subset (default: all five); -exp scenarios uses only the first (default AAM), -exp loadgen only the first (default: the gateway's)")
		csvPath   = flag.String("csv", "", "also write long-format CSV to this path ('-' for stdout)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		parallel  = flag.Int("parallel", 0, "sweep worker-pool size (0 = all cores; use 1 for paper-faithful runtime/memory metrics)")
		shards    = flag.String("shards", "1,2,4,8", "shard counts for -exp scenarios (comma-separated)")
		rebalance = flag.Bool("rebalance", false, "with -exp scenarios: add presampled and rebalanced (WithRebalance) cells at every multi-shard count of the drift scenarios (rushhour, flashcrowd)")
		scenarios = flag.String("scenarios", "", "scenario subset for -exp scenarios (comma-separated; default: all kinds)")
		url       = flag.String("url", "", "ltcd base URL for -exp loadgen (e.g. http://127.0.0.1:8080)")
		lgCluster = flag.String("cluster", "", "comma-separated node URLs for -exp loadgen against an ltcd cluster (node-ID order; overrides -url)")
		lgBatch   = flag.Int("loadgen-batch", 0, "feed -exp loadgen through /checkin/batch chunks of this size (0/1 = per-call)")
	)
	flag.Parse()

	algoList := splitList(*algos)
	firstAlgo := ""
	if len(algoList) > 0 {
		firstAlgo = algoList[0]
	}
	// others is the one table of non-figure experiments: -list prints it and
	// -exp dispatches through it, so the two cannot drift.
	others := []struct {
		id, help string
		run      func() error
	}{
		{"table4", "print the synthetic dataset settings (Table IV)", func() error {
			_, err := fmt.Print(experiments.FormatTableIV())
			return err
		}},
		{"table5", "print the check-in dataset presets (Table V)", func() error {
			_, err := fmt.Print(experiments.FormatTableV())
			return err
		}},
		{"scenarios", "exploratory throughput-vs-latency sweep: scenario × shards × layout (-scenarios, -shards, -rebalance)", func() error {
			return runScenarios(os.Stdout, *scenarios, *shards, *rebalance, *scale, *seed, firstAlgo)
		}},
		{"loadgen", "drive a running ltcd gateway or cluster end to end and audit it (-url | -cluster, -loadgen-batch)", func() error {
			if *lgCluster == "" {
				return runLoadgen(os.Stdout, []string{*url}, false, *scale, *seed, firstAlgo, *lgBatch)
			}
			return runLoadgen(os.Stdout, splitList(*lgCluster), true, *scale, *seed, firstAlgo, *lgBatch)
		}},
	}

	if *list {
		fmt.Println("experiments (each covers three figure panels):")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-17s %s  [%s %s %s]\n", e.ID, e.Title, e.Panels[0], e.Panels[1], e.Panels[2])
		}
		for _, o := range others {
			fmt.Printf("  %-17s %s\n", o.id, o.help)
		}
		return
	}
	if *expID == "" {
		log.Fatal("missing -exp; use -list to see the available experiments")
	}
	for _, o := range others {
		if *expID == o.id {
			if err := o.run(); err != nil {
				log.Fatal(err)
			}
			return
		}
	}

	opts := experiments.Options{
		Scale:      *scale,
		Reps:       *reps,
		Seed:       *seed,
		Parallel:   *parallel,
		Algorithms: algoList,
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ids := splitList(*expID)
	if *expID == "all" {
		ids = experiments.IDs()
	}

	var csvOut io.Writer
	if *csvPath == "-" {
		csvOut = os.Stdout
	} else if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		csvOut = f
	}

	for i, id := range ids {
		e, err := experiments.Lookup(id)
		if err != nil {
			valid := append([]string{"all"}, experiments.IDs()...)
			for _, o := range others {
				valid = append(valid, o.id)
			}
			log.Fatalf("%v; valid -exp ids: %s", err, strings.Join(valid, ", "))
		}
		table, err := e.Run(opts)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := table.Format(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if csvOut != nil {
			if err := table.CSV(csvOut); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// splitList splits a comma-separated flag value, trimming each entry; an
// empty value yields nil.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
