package main

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"ltc"
)

// runScenarios is the exploratory trade-off sweep: check-in throughput
// beside the LTC latency it costs, for every requested scenario × shard
// count × layout. Each multi-shard count runs under both fixed striping
// and the balanced tile→shard layout (WithBalancedShards), and drift
// scenarios add a balanced layout packed from the causal stream prefix
// alone (WithLoadPrefix, "presampled"). `-scenarios uniform` is the
// plain Table IV instance. Every cell is fed per-call from GOMAXPROCS
// feeders, so GOMAXPROCS=1 gives the deterministic sequential-feed
// latency. Numbers are best-of-three on whatever box runs them; claims,
// regression gates and per-path allocation and CPU costs are bench/'s.
func runScenarios(out io.Writer, scenarioList, shardList string, scale float64, seed uint64, algoName string) error {
	kinds := splitList(scenarioList)
	if len(kinds) == 0 {
		kinds = ltc.ScenarioKinds()
	}
	shardCounts, err := parseCountList("-shards", shardList)
	if err != nil {
		return err
	}
	if len(shardCounts) == 0 {
		return fmt.Errorf("-shards must list at least one shard count")
	}
	algo := benchAlgo(algoName)
	feeders := runtime.GOMAXPROCS(0)

	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tshards\tlayout\tworkers/s\timbalance\tglobal latency\truns")
	for k, kind := range kinds {
		scn, err := ltc.NewScenario(kind, cfg)
		if err != nil {
			return err
		}
		in, err := scn.Generate()
		if err != nil {
			return err
		}
		if k == 0 {
			fmt.Fprintf(out, "scenarios: %s over %d tasks / %d workers, %d per-call feeders\n\n",
				algo, len(in.Tasks), len(in.Workers), feeders)
		}
		for _, n := range shardCounts {
			cells := []throughputResult{{Scenario: kind, Shards: n}}
			if n > 1 {
				// Balanced only differs beyond one shard.
				cells = append(cells, throughputResult{Scenario: kind, Shards: n, Balanced: true})
				if driftScenario(kind) {
					// The full-stream oracle layout above already knows
					// where the drift lands; the presampled layout is
					// packed from what a deployment knows at launch.
					cells = append(cells, throughputResult{Scenario: kind, Shards: n, Balanced: true, Presampled: true})
				}
			}
			for _, cell := range cells {
				res, err := measureThroughput(in, algo, seed, cell, feeders)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\t%d\t%s\t%.0f\t%.2f\t%d\t%d\n",
					res.Scenario, res.Shards, res.layout(), res.WorkersPerSec,
					res.Imbalance, res.Latency, res.Runs)
			}
		}
	}
	return w.Flush()
}

// driftScenario reports whether the scenario's load moves mid-stream —
// the regime where any partition-time layout can go stale.
func driftScenario(kind string) bool {
	return kind == "rushhour" || kind == "flashcrowd"
}
