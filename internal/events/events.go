// Package events is the platform's publish/subscribe layer: the dispatch
// layer publishes task-lifecycle events (posted, retired, completed,
// platform-done) into a Bus, and any number of subscribers consume them
// through bounded buffered channels. The bus never blocks a publisher — a
// subscriber that falls behind loses events (counted per subscription)
// instead of stalling the check-in hot path. A recorder is the lossless
// alternative: a short function the publisher itself calls with every
// event. See CONCURRENCY.md ("Event subscriptions") for the ordering, drop
// and recorder contracts.
package events

import (
	"slices"
	"sync"
	"sync/atomic"

	"ltc/internal/model"
)

// Kind discriminates platform events.
type Kind uint8

// The platform event kinds.
const (
	// TaskPosted fires when PostTask adds a task mid-stream. Task is the
	// new global TaskID, PostIndex its arrival-clock anchor.
	TaskPosted Kind = iota + 1
	// TaskRetired fires the first time a task is retired (including
	// harmless retires of already-completed tasks, which still mark the
	// task retired in TaskStatuses).
	TaskRetired
	// TaskCompleted fires when a task's accumulated credit reaches δ.
	// Worker is the global index of the worker whose assignment completed
	// it — the task's absolute latency. Every task completes at most once,
	// so a subscriber that keeps up sees exactly one TaskCompleted per
	// completed task.
	TaskCompleted
	// PlatformDone fires when the count of open tasks reaches zero. A
	// later PostTask can revive the platform, so PlatformDone may fire
	// again after further completions or retires.
	PlatformDone
	// TileMigrated fires after the rebalancer hands a tile (and its tasks)
	// from one shard to another: Tile is the migrated task tile, FromShard
	// and ToShard the old and new owners. Published after the routing swap
	// is visible, so a subscriber that folds migration events always trails
	// the table, never leads it.
	TileMigrated
)

// String returns the kind's wire name, as served by the ltcd gateway.
func (k Kind) String() string {
	switch k {
	case TaskPosted:
		return "task_posted"
	case TaskRetired:
		return "task_retired"
	case TaskCompleted:
		return "task_completed"
	case PlatformDone:
		return "platform_done"
	case TileMigrated:
		return "tile_migrated"
	}
	return "unknown"
}

// Event is one platform event. Seq is the bus-wide publication sequence
// number (starting at 1, no gaps), identical across subscribers — two
// subscribers that both receive an event agree on its Seq, and a gap in
// the received sequence means the subscription dropped events in between.
type Event struct {
	Seq  uint64
	Kind Kind
	// Task is the subject task's global ID (-1 for PlatformDone).
	Task model.TaskID
	// Worker is the completing worker's global arrival index
	// (TaskCompleted only, 0 otherwise).
	Worker int
	// PostIndex is the arrival clock at post time (TaskPosted only).
	PostIndex int
	// Tile, FromShard and ToShard describe a migration (TileMigrated only,
	// 0 otherwise — use Kind to discriminate).
	Tile      int
	FromShard int
	ToShard   int
}

// Bus fans published events out to subscribers and recorders. The zero
// value is not ready; use NewBus. All methods are safe for concurrent use.
type Bus struct {
	// active counts subscriptions and recorders, so Publish can bail
	// without locking while nobody listens — the common case on the
	// check-in hot path.
	active atomic.Int64
	// The bus lock is a leaf of the dispatch lock order: Publish must never
	// be called with a dispatch mutex held (see CONCURRENCY.md). The one
	// lock that nests inside it is a recorder's own.
	//ltc:lock leaf
	mu   sync.Mutex
	seq  uint64
	subs map[*Subscription]struct{}
	recs []*func(Event) // attached recorders, by identity
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// Active reports whether the bus currently has any subscriber or recorder.
// Publishing to an inactive bus is a single atomic load.
func (b *Bus) Active() bool { return b.active.Load() > 0 }

// Publish assigns the event its sequence number, hands it to every
// recorder and offers it to every subscriber. It never blocks on a
// subscriber: one whose buffer is full loses the event, and its Dropped
// counter advances instead. It reports whether the bus had a subscription
// (recorders do not count), so a publisher can yield to a receiver the
// event may have woken.
func (b *Bus) Publish(e Event) (subscribed bool) {
	if !b.Active() {
		return false
	}
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	for _, r := range b.recs {
		(*r)(e)
	}
	for s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
		}
	}
	subscribed = len(b.subs) > 0
	b.mu.Unlock()
	return subscribed
}

// Subscribe registers a new subscriber with a buffer of the given capacity
// (values < 1 are raised to 1). Events published before Subscribe returns
// are not delivered.
func (b *Bus) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{bus: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.active.Add(1)
	b.mu.Unlock()
	return s
}

// Record attaches record as a recorder: Publish calls it under the bus
// lock, right after stamping Seq, so a recorder sees every event published
// after Record returns exactly once, in Seq order, and can never drop one.
// It runs on the publisher's goroutine and holds up every other publisher
// while it runs, so it must be short, must not block and must not call the
// bus; a lock it takes nests inside the bus lock. stop detaches the
// recorder — once it returns, record is not called again — and is safe to
// call more than once.
func (b *Bus) Record(record func(Event)) (stop func()) {
	r := &record
	b.mu.Lock()
	b.recs = append(b.recs, r)
	b.active.Add(1)
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		if i := slices.Index(b.recs, r); i >= 0 {
			b.recs = slices.Delete(b.recs, i, i+1)
			b.active.Add(-1)
		}
		b.mu.Unlock()
	}
}

// RecordPlatform attaches a recorder (see Bus.Record) to the event bus of
// platform, a *ltc.Platform. Package ltc sets it when it is initialised, so
// front ends inside the module can record a platform's events without ltc
// exporting a name for it.
var RecordPlatform func(platform any, record func(Event)) (stop func())

// Subscription is one subscriber's bounded event feed.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// Events returns the receive side of the subscription. The channel is
// closed by Close; events already buffered remain readable after it.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were lost because the subscription's
// buffer was full at publish time.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the bus and closes its channel.
// Safe to call more than once; buffered events stay readable.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(s.bus.subs, s)
		s.bus.active.Add(-1)
		close(s.ch)
	}
	s.bus.mu.Unlock()
}
