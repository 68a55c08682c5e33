package core

import "ltc/internal/model"

// solver is what LAF, AAM and Random share and embed: the instance and
// candidate index they are bound to, the ledger, and the per-arrival
// buffers. It supplies Done and the ledger (through which the engine posts,
// retires and migrates tasks), so an algorithm is its selection rule:
// begin loads the arriving worker's candidates, the rule picks among the
// ones not yet done, grant records each pick. Under an Engine the index holds
// open tasks only and the done filter passes everything; it is what keeps a
// bare solver, over an index nobody writes, from assigning a settled task.
type solver struct {
	in    *model.Instance
	ci    *model.CandidateIndex
	state *taskState
	cands []model.Candidate
	// out is the reusable Outcome slice returned by Arrive (valid until the
	// next call), keeping the per-arrival hot path allocation-free.
	// Capacity K from construction; a worker receives at most K grants, so
	// it never regrows.
	out []Outcome //ltc:arena
}

func newSolver(in *model.Instance, ci *model.CandidateIndex) solver {
	return solver{
		in:    in,
		ci:    ci,
		state: newTaskState(len(in.Tasks), in.Delta()),
		out:   make([]Outcome, 0, in.K),
	}
}

// Done implements Online.
func (s *solver) Done() bool { return s.state.allDone() }

func (s *solver) ledger() *taskState { return s.state }

// begin starts an arrival: it empties the outcome buffer and loads w's
// candidates into s.cands. It reports false, having queried nothing, when
// every task is already done.
func (s *solver) begin(w model.Worker) bool {
	s.out = s.out[:0]
	if s.state.allDone() {
		return false
	}
	s.cands = s.ci.Candidates(w, s.cands[:0])
	return true
}

// grant assigns candidate c to worker w: one ledger entry, one Outcome.
func (s *solver) grant(w model.Worker, c model.Candidate) {
	s.out = append(s.out, Outcome{
		Task:      c.Task,
		Credit:    c.AccStar,
		Completed: s.state.add(w.Index, c.Task, c.AccStar),
	})
}
