package ltc

import "ltc/internal/dispatch"

// The options system: every constructor and runner — Solve, NewSession,
// NewPlatform, ReplayChurn — accepts the same composable functional
// options, and each consumes the subset that applies to it (WithShards
// tunes a Platform, WithIndex the solvers; irrelevant options are ignored,
// never an error).

// Option configures Solve, NewSession, NewPlatform or ReplayChurn. Options
// are applied in order, so a later option overrides an earlier one for the
// same setting.
type Option interface {
	applyOption(*config)
}

// config is the merged view of every tunable the options can set. The zero
// value is every setting's default.
type config struct {
	shards      int
	balanced    bool
	rebalance   *dispatch.RebalanceOptions
	loadPrefix  int
	seed        uint64
	queueCap    int // set only by tests (export_test.go); 0 is dispatch.DefaultQueueCap
	eventBuffer int
	index       *CandidateIndex
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*config)

func (f optionFunc) applyOption(c *config) { f(c) }

// newConfig folds the options, in order, over the default config.
func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o.applyOption(&c)
	}
	return c
}

// WithShards sets the Platform's requested spatial shard count. 0 (the
// default) uses GOMAXPROCS; negative counts are rejected by NewPlatform.
// The effective count can be lower: empty spatial tiles collapse and
// shards never outnumber tasks. Ignored by Solve and NewSession.
func WithShards(n int) Option { return optionFunc(func(c *config) { c.shards = n }) }

// WithBalancedShards switches the Platform's tile→shard layout from fixed
// spatial striping to a load-aware greedy pack: the task bounding rect is
// tiled much finer than the shard count and tiles are packed onto shards
// largest-sampled-load-first, so skewed traffic (hotspots, flash crowds,
// rush-hour drift) splits across shards instead of collapsing onto one hot
// shard mutex. The load profile is sampled from the instance's worker
// locations (task locations when the instance carries none). Latency and
// ordering semantics are unchanged — workers keep their global arrival
// indices, every location still routes to exactly one shard, and with one
// shard the layouts coincide — but multi-shard assignments differ from the
// striped layout's, since shard boundaries move (see CONCURRENCY.md,
// "Balanced shard layout"). Ignored outside NewPlatform and ReplayChurn.
func WithBalancedShards() Option { return optionFunc(func(c *config) { c.balanced = true }) }

// WithRebalance enables adaptive live re-sharding on top of the balanced
// layout (it implies WithBalancedShards): the platform learns per-tile
// arrival rates online (an EWMA folded every RebalanceOptions.Interval
// arrivals) and migrates tiles — their routing entry and their open tasks'
// solver state — from the forecast-heaviest shard to the lightest, without
// stopping ingestion. Pass no argument for the defaults, or one
// RebalanceOptions to tune the forecast interval, migration threshold,
// moves-per-pass cap and EWMA smoothing (zero fields mean their defaults).
// Rebalancing is inert on single-shard platforms. Migrations are observable
// through Platform.Migrations, ShardStats.MigratedIn/MigratedOut and
// EventTileMigrated; see CONCURRENCY.md, "Live tile migration". Ignored
// outside NewPlatform and ReplayChurn.
func WithRebalance(opts ...RebalanceOptions) Option {
	return optionFunc(func(c *config) {
		c.balanced = true
		var r RebalanceOptions
		if len(opts) > 0 {
			r = opts[0]
		}
		c.rebalance = &r
	})
}

// WithLoadPrefix restricts the balanced layout's load profile to the first
// n workers of the instance's stream — the causally honest profile a live
// deployment has when it partitions: arrivals that haven't happened yet
// can't be sampled. The default profile strides over the whole worker set,
// an oracle that already knows where late traffic lands; under drift
// (rush-hour corridors, flash crowds) the prefix layout instead goes stale
// as the stream moves, which is exactly the regime WithRebalance corrects.
// Implies WithBalancedShards. n <= 0 or beyond the stream keeps the
// default full-stream sampling. ReplayChurn sets a prefix of its own for
// plans with late posts unless the caller passed one. Ignored outside
// NewPlatform and ReplayChurn.
func WithLoadPrefix(n int) Option {
	return optionFunc(func(c *config) {
		c.balanced = true
		c.loadPrefix = n
	})
}

// WithSeed sets the seed driving the Random algorithm (per shard on a
// Platform). The deterministic algorithms ignore it; zero is a valid seed.
func WithSeed(seed uint64) Option { return optionFunc(func(c *config) { c.seed = seed }) }

// WithEventBuffer sets the per-subscriber buffer capacity handed out by
// Platform.Subscribe (default DefaultEventBuffer). A subscriber that lets
// its buffer fill loses events instead of blocking check-ins; see the
// event contract in CONCURRENCY.md. Values < 1 fall back to the default.
func WithEventBuffer(n int) Option { return optionFunc(func(c *config) { c.eventBuffer = n }) }

// WithIndex reuses a prebuilt candidate index (it must have been built for
// the same instance). Solve and NewSession build one on demand; sharing an
// index amortizes its construction across runs. The supplied index is a
// template and is never modified: an online run completes tasks out of its
// own copy (CandidateIndex.Clone — a copy of the tables, cheaper than the
// build), so runs over one index cannot see each other in any order or
// interleaving. Ignored by NewPlatform, whose per-shard sub-instances always
// build their own.
func WithIndex(ci *CandidateIndex) Option { return optionFunc(func(c *config) { c.index = ci }) }
