package main

import (
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"ltc"
)

// runScenarios is the exploratory trade-off sweep: check-in throughput
// beside the LTC latency it costs, for every requested scenario × shard
// count × ingestion mode, each multi-shard cell under both fixed striping
// and the balanced tile→shard layout (WithBalancedShards) — and, when
// rebalance is set, drift scenarios gain a comparison pair packed from the
// causal stream prefix (WithLoadPrefix): once static, once with adaptive
// live re-sharding on top (WithRebalance). `-scenarios uniform` is the
// plain Table IV instance. Numbers are best-of-three on whatever box runs
// them; claims and regression gates use bench/ instead.
func runScenarios(scenarioList, shardList, batchList, feedersList string, async, rebalance bool, scale float64, seed uint64, algoName string) error {
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
	batchSizes, err := parseCountList("-batch", batchList)
	if err != nil {
		return err
	}
	feederCounts, err := parseFeeders(feedersList)
	if err != nil {
		return err
	}
	algo := benchAlgo(algoName)

	cfg := ltc.DefaultWorkload().Scale(scale)
	cfg.Seed = seed

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tmode\tshards\tlayout\tbatch\tfeeders\tworkers/s\tns/op\tallocs/op\tB/op\timbalance\tmigrations\tglobal latency\truns")
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
			fmt.Printf("scenarios: %s over %d tasks / %d workers, feeder counts %v\n\n",
				algo, len(in.Tasks), len(in.Workers), feederCounts)
		}
		for _, n := range shardCounts {
			var cells []throughputResult
			type layoutSpec struct{ balanced, presampled, rebalanced bool }
			layouts := []layoutSpec{{false, false, false}}
			if n > 1 {
				// Balanced only differs beyond one shard, and live
				// re-sharding needs at least two shards to move between.
				layouts = append(layouts, layoutSpec{true, false, false})
				if rebalance && driftScenario(kind) {
					// The rebalance comparison pair packs its layout from
					// the causal stream prefix (WithLoadPrefix) on both
					// sides: the full-stream oracle layout above already
					// knows where the drift lands, so there is nothing
					// left for migrations to fix there. The presampled
					// static twin is the deployment-honest baseline
					// rebalancing is read against.
					layouts = append(layouts,
						layoutSpec{true, true, false},
						layoutSpec{true, true, true})
				}
			}
			for _, l := range layouts {
				for _, f := range feederCounts {
					cells = append(cells, throughputResult{Scenario: kind, Mode: "percall", Shards: n, Balanced: l.balanced, Presampled: l.presampled, Rebalanced: l.rebalanced, Feeders: f})
					for _, b := range batchSizes {
						cells = append(cells, throughputResult{Scenario: kind, Mode: "batch", Shards: n, BatchSize: b, Balanced: l.balanced, Presampled: l.presampled, Rebalanced: l.rebalanced, Feeders: f})
					}
					if async {
						cells = append(cells, throughputResult{Scenario: kind, Mode: "async", Shards: n, Balanced: l.balanced, Presampled: l.presampled, Rebalanced: l.rebalanced, Feeders: f})
					}
				}
			}
			for _, cell := range cells {
				res, err := measureThroughput(in, algo, seed, cell)
				if err != nil {
					return err
				}
				layout := "striped"
				if res.Balanced {
					layout = "balanced"
				}
				if res.Presampled {
					layout = "presampled"
				}
				if res.Rebalanced {
					layout = "rebalanced"
				}
				batchCol := "-"
				if res.BatchSize > 0 {
					batchCol = strconv.Itoa(res.BatchSize)
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f\t%d\t%d\t%d\n",
					res.Scenario, res.Mode, res.Shards, layout, batchCol, res.Feeders,
					res.WorkersPerSec, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.Imbalance, res.Migrations, res.Latency, res.Runs)
			}
		}
	}
	return w.Flush()
}

// driftScenario reports whether the scenario's load moves mid-stream —
// the regime where any partition-time layout can go stale and live
// re-sharding has something to chase.
func driftScenario(kind string) bool {
	return kind == "rushhour" || kind == "flashcrowd"
}
