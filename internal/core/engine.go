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
// an arrival's walk never merges, predicts or scores a settled task — of the
// open ones LAF and AAM visit only those that can still enter the worker's
// top K (see scan). A caller that keeps an index for other runs hands over a
// Clone.
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
	// maxRel is the largest (worker index − post index) over the assignments
	// this engine made: the post-relative counterpart of the ledger's latency.
	maxRel int32
	// evicted counts the tasks handed to another engine via EvictTask. Each
	// keeps its dense slot (IDs never shrink) as a closed ghost but leaves
	// Progress's total: the adopting engine counts it now. Only open tasks
	// are evicted, so completed and retired need no such correction.
	evicted int
}

// NewEngine builds an engine around a fresh solver from factory. The
// candidate index must have been built for the same instance and hold
// exactly its open tasks; the engine takes it over. The instance's Workers
// slice may be empty: workers arrive via Arrive.
func NewEngine(in *model.Instance, ci *model.CandidateIndex, factory OnlineFactory) *Engine {
	algo := factory(in, ci)
	return &Engine{
		in:        in,
		ci:        ci,
		algo:      algo,
		state:     algo.ledger(),
		postIndex: make([]int32, len(in.Tasks)),
		lastUsed:  make([]int32, len(in.Tasks)),
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
		idx := int32(w.Index)
		if idx > e.lastUsed[oc.Task] {
			e.lastUsed[oc.Task] = idx
		}
		if rel := idx - e.postIndex[oc.Task]; rel > e.maxRel {
			e.maxRel = rel
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

// TaskSnapshot is one open task's engine state in transit between shards:
// the accumulated Acc* credit and the latency bookkeeping. EvictTask produces
// it on the migration source; AdoptTask replays it on the target so the
// task's subsequent behaviour — completion threshold, latency reporting,
// assignability — is indistinguishable from never having moved.
type TaskSnapshot struct {
	Credit    float64
	PostIndex int
	LastUsed  int
}

// EvictTask hands open task t's state out of this engine for adoption
// elsewhere. The task leaves the candidate index and the ledger (its local ID
// stays allocated — dense spaces never shrink — as a closed ghost that is
// never assigned again) and stops counting toward Progress: the adopting
// engine owns it from now on. A settled task — completed, retired, or the
// ghost of an earlier eviction — is refused with ok = false and stays where
// it settled: nothing will ever be assigned to it again, so there is nothing
// to move. Evicting an unknown task is an error.
func (e *Engine) EvictTask(t model.TaskID) (snap TaskSnapshot, ok bool, err error) {
	if t < 0 || int(t) >= len(e.lastUsed) {
		return TaskSnapshot{}, false, fmt.Errorf("core: evict of unknown task %d", t)
	}
	if e.state.done(t) {
		return TaskSnapshot{}, false, nil
	}
	// An open task is live in the index (see the type comment).
	if err := e.ci.Remove(t); err != nil {
		return TaskSnapshot{}, false, err
	}
	snap = TaskSnapshot{
		Credit:    e.state.arr.Accumulated[t],
		PostIndex: int(e.postIndex[t]),
		LastUsed:  int(e.lastUsed[t]),
	}
	// Closing the task in the ledger releases the source's interest in it:
	// the solver stops waiting on it for Done — the target's ledger now
	// carries that obligation via adopt.
	e.state.close(t)
	e.evicted++
	return snap, true, nil
}

// AdoptTask extends the engine with an open task — one evicted from another
// engine, or (from PostTask) one with no history — seeding credit and latency
// bookkeeping from the snapshot. The caller must already have appended t to
// the instance's Tasks slice and t.ID must extend the dense ID space.
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
	e.postIndex = append(e.postIndex, int32(snap.PostIndex))
	e.lastUsed = append(e.lastUsed, int32(snap.LastUsed))
	e.state.adopt(t.ID, snap.Credit)
	return nil
}

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
// completed before retirement). Tasks evicted to another engine leave the
// total: the adopting engine reports them.
func (e *Engine) Progress() (completed, total int) {
	return e.completed, len(e.lastUsed) - e.evicted
}

// Retired returns how many tasks have been retired here (whether or not
// they completed first).
func (e *Engine) Retired() int { return e.retired }

// RelativeLatency returns the largest (worker index − task post index) over
// the assignments this engine made — Arrangement().Latency() measured from
// each task's post instead of from the start of the stream.
func (e *Engine) RelativeLatency() int { return int(e.maxRel) }

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
