package ltc

// WithQueueCap bounds each shard's CheckInAsync queue to exactly n workers:
// enqueues block (backpressure) while the owning shard's queue is full, and
// a drain run ingests at most n workers per shard-mutex hold. 0 uses
// dispatch.DefaultQueueCap (1024); negative values are rejected. Ignored
// outside NewPlatform and ReplayChurn. Only tests set it: every other caller
// gets the default.
func WithQueueCap(n int) Option { return optionFunc(func(c *config) { c.queueCap = n }) }
