package ltc

import (
	"errors"
	"fmt"

	"ltc/internal/core"
	"ltc/internal/dispatch"
)

// Session drives an online algorithm one worker at a time — the natural
// shape for a live platform where check-ins stream in. Unlike Solve, the
// caller controls the worker feed and can interleave its own bookkeeping
// (e.g. pushing the assigned questions to the user's device).
//
// Workers must be offered in arrival order with consecutive indices
// starting at 1; assignments are immediate and irrevocable, matching the
// online LTC temporal constraint. A Session is single-threaded — it is the
// 1-shard special case of Platform, which serves concurrent check-in
// streams across spatial shards.
type Session struct {
	eng       *core.Engine
	nextIndex int
	grantsBuf []TaskGrant
}

// Session errors.
var (
	ErrOutOfOrder  = errors.New("ltc: workers must arrive in index order 1, 2, ...")
	ErrSessionDone = errors.New("ltc: session already completed all tasks")
)

// NewSession starts a streaming session for an online algorithm. The
// instance's Workers slice may be empty — workers are supplied via Arrive —
// but Tasks, Epsilon, K, Model and MinAcc must be set.
func NewSession(in *Instance, algo Algorithm, opts ...Option) (*Session, error) {
	c := newConfig(opts)
	if err := in.ValidateStreaming(); err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	factory, err := onlineFactory(algo, c.seed)
	if err != nil {
		return nil, err
	}
	ci := c.indexFor(in)
	if c.index != nil {
		ci = ci.Clone() // the engine writes its index; WithIndex's stays a template
	}
	return &Session{
		eng:       core.NewEngine(in, ci, factory),
		nextIndex: 1,
	}, nil
}

// Arrive offers the next worker and returns its check-in Receipt: the
// granted tasks with per-assignment credit and completion, plus the
// session-done flag — everything a caller needs without re-polling
// Progress. A Session is the 1-shard special case of Platform, so
// Receipt.Shard is always 0.
//
// It returns ErrOutOfOrder when the worker's index breaks the arrival
// sequence (the worker is not observed and may be re-presented with the
// right index) and ErrSessionDone — after consuming the index — once every
// task has completed, matching Platform.CheckIn's bounced-arrival
// accounting (see WorkersSeen).
//
// The Receipt's Assignments slice is a reusable session buffer, valid only
// until the next Arrive; copy it to retain it.
func (s *Session) Arrive(w Worker) (Receipt, error) {
	if w.Index != s.nextIndex {
		return Receipt{Shard: -1}, fmt.Errorf("%w: got %d, want %d", ErrOutOfOrder, w.Index, s.nextIndex)
	}
	s.nextIndex++
	if s.eng.Done() {
		return Receipt{Worker: w.Index, Done: true}, ErrSessionDone
	}
	outcomes := s.eng.Arrive(w)
	s.grantsBuf = s.grantsBuf[:0]
	for _, oc := range outcomes {
		s.grantsBuf = append(s.grantsBuf, TaskGrant{Task: oc.Task, Credit: oc.Credit, Completed: oc.Completed})
	}
	var grants []TaskGrant
	if len(s.grantsBuf) > 0 {
		grants = s.grantsBuf
	}
	return Receipt{Worker: w.Index, Assignments: grants, Done: s.eng.Done()}, nil
}

// Done reports whether every task has reached the quality threshold.
func (s *Session) Done() bool { return s.eng.Done() }

// Latency returns the arrival index of the last worker assigned so far —
// the LTC objective once Done is true.
func (s *Session) Latency() int { return s.eng.Arrangement().Latency() }

// WorkersSeen reports how many check-ins have been observed: every Arrive
// call presenting the expected arrival index counts, including calls
// bounced with ErrSessionDone while all tasks were complete. Calls
// rejected with ErrOutOfOrder are not observed. This is the same contract
// as Platform.WorkersSeen, pinned by TestWorkersSeenContract.
func (s *Session) WorkersSeen() int { return s.nextIndex - 1 }

// Arrangement returns the assignments made so far. The returned value is
// live; callers must not mutate it.
func (s *Session) Arrangement() *Arrangement { return s.eng.Arrangement() }

// Progress returns the number of completed tasks and the task total.
func (s *Session) Progress() (completed, total int) { return s.eng.Progress() }

// Credits appends a snapshot of the per-task accumulated Acc* credit to dst
// and returns the extended slice.
func (s *Session) Credits(dst []float64) []float64 { return s.eng.Credits(dst) }

// Receipt re-exports: the structured check-in result shared by
// Session.Arrive, Platform.CheckIn and Platform.CheckInBatch.
type (
	// Receipt is the structured result of one check-in: the worker's global
	// index, its spatial shard (0 on a Session; -1 when bounced before
	// routing), the granted tasks with per-assignment credit/completion,
	// and the platform-done flag.
	Receipt = dispatch.Receipt
	// TaskGrant is one granted assignment inside a Receipt.
	TaskGrant = dispatch.TaskGrant
)
