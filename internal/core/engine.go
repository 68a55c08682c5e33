package core

import (
	"fmt"

	"ltc/internal/model"
)

// Engine binds an Online solver to an instance (or to one shard's
// sub-instance) and adds what the solver's ledger does not hold: an O(1)
// completed-task counter and — for the online task lifecycle — each task's
// post index and the last worker index assigned to it, plus the candidate
// index half of posting, retiring, migrating and completing a task. Credit,
// pairs and the closed set are the ledger's; the engine reads them there.
//
// The engine owns the index it is handed and is its only writer. Completion
// is the fourth index write: Arrive removes a task the moment it reaches δ,
// so a task is live in the index exactly while it is open in the ledger and
// an arrival's query never sorts, predicts or scores a settled task. A
// caller that keeps an index for other runs hands over a Clone.
//
// It is the single-threaded building block of both the streaming Session
// API and the sharded dispatch layer — callers that share an Engine across
// goroutines must serialize access themselves.
type Engine struct {
	in        *model.Instance
	ci        *model.CandidateIndex
	algo      Online
	state     *taskState // algo's ledger
	completed int
	retired   int
	// postIndex[t] is the caller's arrival clock when task t was posted
	// (0 for tasks present from the start); lastUsed[t] is the largest
	// worker index assigned to t so far. Together they give each task's
	// absolute and post-relative latency in O(1). Both are dense int32
	// arrays keyed by TaskID — half the cache traffic of []int on 64-bit
	// when the per-arrival loop touches them.
	postIndex []int32
	lastUsed  []int32
	// evictedMask marks tasks handed to another engine via EvictTask. An
	// evicted task keeps its dense slot (IDs never shrink) but stops counting
	// toward Progress and Retired: the adopting engine owns those counts now.
	// The three counters carry the evicted tasks' contributions to completed,
	// retired and the dense total, so the accessors can subtract them in O(1).
	evictedMask      []uint64
	evictedCount     int
	evictedCompleted int
	evictedRetired   int
}

// NewEngine builds an engine around a fresh solver from factory. The
// candidate index must have been built for the same instance and hold
// exactly its open tasks; the engine takes it over. The instance's Workers
// slice may be empty: workers arrive via Arrive.
func NewEngine(in *model.Instance, ci *model.CandidateIndex, factory OnlineFactory) *Engine {
	algo := factory(in, ci)
	return &Engine{
		in:          in,
		ci:          ci,
		algo:        algo,
		state:       algo.ledger(),
		postIndex:   make([]int32, len(in.Tasks)),
		lastUsed:    make([]int32, len(in.Tasks)),
		evictedMask: make([]uint64, (len(in.Tasks)+63)/64),
	}
}

// BeginBatch and EndBatch do nothing: a run of arrivals needs no bracket now
// that the candidate index is queried in place. They remain only because
// bench/twin.go calls them and bench/ is frozen by BENCHMARK.json's paths;
// delete them together with those calls.
func (e *Engine) BeginBatch() {}

// EndBatch does nothing; see BeginBatch.
func (e *Engine) EndBatch() {}

// Arrive offers the next worker to the solver and returns one Outcome per
// assignment, as the solver recorded them in its ledger (pair, Acc* credit,
// completion); the engine folds them into its counters and drops each
// completed task from the candidate index. The returned slice is the
// solver's reusable buffer, valid only until the next call.
// Index discipline is the caller's job: Session enforces consecutive
// indices starting at 1, while the dispatch layer feeds each shard a sparse
// subsequence of global indices (the solvers never read Worker.Index, and
// the arrangement only takes a max over it).
//
//ltc:noalloc
func (e *Engine) Arrive(w model.Worker) []Outcome {
	out := e.algo.Arrive(w)
	for _, oc := range out {
		if oc.Completed {
			e.completed++
			// The solver picked the task from this index a moment ago, so it
			// is live and the one error Remove has cannot occur.
			_ = e.ci.Remove(oc.Task)
		}
		if idx := int32(w.Index); idx > e.lastUsed[oc.Task] {
			e.lastUsed[oc.Task] = idx
		}
	}
	return out
}

// PostTask extends the engine — its candidate index and its solver's ledger
// — with a task posted mid-stream: the adoption of a task with no history.
// The caller must already have appended t to the instance's Tasks slice —
// the engine checks the dense-ID invariant but does not own the task table.
// postIndex is the caller's arrival clock at post time (the dispatch layer
// passes the largest worker index seen); a late-posted task's latency is
// reported both absolute (worker index) and relative to this index.
func (e *Engine) PostTask(t model.Task, postIndex int) error {
	return e.AdoptTask(t, TaskSnapshot{PostIndex: postIndex})
}

// TaskSnapshot is one task's engine state in transit between shards: the
// accumulated Acc* credit, the latency bookkeeping, and the two status bits.
// EvictTask produces it on the migration source; AdoptTask replays it on the
// target so the task's subsequent behaviour — completion threshold, latency
// reporting, assignability — is indistinguishable from never having moved.
type TaskSnapshot struct {
	Credit    float64
	PostIndex int
	LastUsed  int
	Completed bool
	Retired   bool
}

// EvictTask hands task t's state out of this engine for adoption elsewhere.
// The task leaves the candidate index and the ledger (its local ID stays
// allocated — dense spaces never shrink — as a closed ghost that is never
// assigned again), and it stops counting toward Progress and Retired: the
// adopting engine owns those counts from now on. Evicting an unknown or
// already-evicted task is an error.
func (e *Engine) EvictTask(t model.TaskID) (TaskSnapshot, error) {
	if t < 0 || int(t) >= len(e.lastUsed) {
		return TaskSnapshot{}, fmt.Errorf("core: evict of unknown task %d", t)
	}
	if bitGet(e.evictedMask, t) {
		return TaskSnapshot{}, fmt.Errorf("core: task %d already evicted", t)
	}
	snap := TaskSnapshot{
		Credit:    e.state.arr.Accumulated[t],
		PostIndex: int(e.postIndex[t]),
		LastUsed:  int(e.lastUsed[t]),
		Completed: e.TaskCompleted(t),
		Retired:   e.TaskRetired(t),
	}
	if e.ci.Live(t) {
		if err := e.ci.Remove(t); err != nil {
			return TaskSnapshot{}, err
		}
	}
	// Closing the task in the ledger releases the source's interest in it:
	// if it was still open, the solver stops waiting on it for Done — the
	// target's ledger now carries that obligation via adopt.
	e.state.close(t)
	bitSet(e.evictedMask, t)
	e.evictedCount++
	if snap.Completed {
		e.evictedCompleted++
	}
	if snap.Retired {
		e.evictedRetired++
	}
	return snap, nil
}

// AdoptTask extends the engine with a task evicted from another engine,
// seeding credit, latency bookkeeping and status from the snapshot. The
// caller must already have appended t to the instance's Tasks slice and
// t.ID must extend the dense ID space. A retired or completed task is
// inserted into and immediately removed from the candidate index so the
// index's dense ID space stays in lockstep with the engine's.
func (e *Engine) AdoptTask(t model.Task, snap TaskSnapshot) error {
	if n := len(e.lastUsed); int(t.ID) != n {
		return fmt.Errorf("core: task ID %d does not extend the dense ID space (%d tasks)", t.ID, n)
	}
	if int(t.ID) >= len(e.in.Tasks) || e.in.Tasks[t.ID].Loc != t.Loc {
		return fmt.Errorf("core: task %d not present in the instance task table", t.ID)
	}
	// Index first: its dense check is the last failure point, so the ledger
	// is only extended once the task is fully visible.
	if err := e.ci.Insert(t); err != nil {
		return err
	}
	if snap.Retired || snap.Completed {
		if err := e.ci.Remove(t.ID); err != nil {
			return err
		}
	}
	if snap.Retired {
		e.retired++
	}
	if snap.Completed {
		e.completed++
	}
	e.postIndex = append(e.postIndex, int32(snap.PostIndex))
	e.lastUsed = append(e.lastUsed, int32(snap.LastUsed))
	if int(t.ID)>>6 == len(e.evictedMask) { // crossed into a fresh word
		e.evictedMask = append(e.evictedMask, 0)
	}
	e.state.adopt(t.ID, snap.Credit, snap.Retired)
	return nil
}

// TaskEvicted reports whether task t has been handed to another engine.
func (e *Engine) TaskEvicted(t model.TaskID) bool { return bitGet(e.evictedMask, t) }

// RetireTask removes task t from play: it leaves the candidate index, the
// solver stops assigning it, and it no longer blocks Done. It reports
// whether the task was still open (below δ and not already retired) —
// retiring a completed or already-retired task is a harmless no-op with
// wasOpen = false.
func (e *Engine) RetireTask(t model.TaskID) (wasOpen bool, err error) {
	if t < 0 || int(t) >= len(e.lastUsed) {
		return false, fmt.Errorf("core: retire of unknown task %d", t)
	}
	if e.ci.Live(t) {
		if err := e.ci.Remove(t); err != nil {
			return false, err
		}
	}
	if !e.TaskRetired(t) {
		e.retired++
	}
	return e.state.close(t), nil
}

// Done reports whether every live task has reached the quality threshold.
func (e *Engine) Done() bool { return e.algo.Done() }

// Name returns the bound solver's algorithm name.
func (e *Engine) Name() string { return e.algo.Name() }

// Arrangement returns the assignments made so far. The returned value is
// live; callers must not mutate it.
func (e *Engine) Arrangement() *model.Arrangement { return &e.state.arr }

// Progress returns the number of tasks that reached δ and the total number
// of tasks ever tracked (retired tasks included in both totals when they
// completed before retirement). Tasks evicted to another engine count in
// neither: the adopting engine reports them.
func (e *Engine) Progress() (completed, total int) {
	return e.completed - e.evictedCompleted, len(e.lastUsed) - e.evictedCount
}

// Retired returns how many tasks have been retired (whether or not they
// completed first), excluding tasks since evicted to another engine.
func (e *Engine) Retired() int { return e.retired - e.evictedRetired }

// TaskPostIndex returns the arrival clock recorded when task t was posted
// (0 for initial tasks).
func (e *Engine) TaskPostIndex(t model.TaskID) int { return int(e.postIndex[t]) }

// TaskLastUsed returns the largest worker index assigned to task t so far
// (0 when the task has no assignments).
func (e *Engine) TaskLastUsed(t model.TaskID) int { return int(e.lastUsed[t]) }

// TaskCompleted reports whether task t has reached δ.
func (e *Engine) TaskCompleted(t model.TaskID) bool {
	return model.Completed(e.state.arr.Accumulated[t], e.state.delta)
}

// TaskRetired reports whether task t is out of play here: retired, or
// evicted to another engine (which leaves a closed ghost behind).
func (e *Engine) TaskRetired(t model.TaskID) bool { return bitGet(e.state.closed, t) }

// Credits appends a snapshot of the per-task accumulated Acc* credit to dst
// and returns the extended slice.
func (e *Engine) Credits(dst []float64) []float64 {
	return append(dst, e.state.arr.Accumulated...)
}
