package core

import (
	"math"

	"ltc/internal/model"
)

// solver is what LAF, AAM and Random share and embed: the instance they are
// bound to, the ledger, and the outcome buffer. It supplies Done and the
// ledger (through which the engine posts, retires and migrates tasks), so an
// algorithm is its selection rule: begin opens the arrival, the rule picks
// among the worker's candidates not yet done, grant records each pick. Under
// an Engine the index holds open tasks only and the done filter passes
// everything; it is what keeps a bare solver, over an index nobody writes,
// from assigning a settled task.
type solver struct {
	in    *model.Instance
	state *taskState
	// out is the reusable Outcome slice returned by Arrive (valid until the
	// next call), keeping the per-arrival hot path allocation-free.
	// Capacity K from construction; a worker receives at most K grants, so
	// it never regrows.
	out []Outcome //ltc:arena
}

func newSolver(in *model.Instance) solver {
	return solver{
		in:    in,
		state: newTaskState(len(in.Tasks), in.Delta()),
		out:   make([]Outcome, 0, in.K),
	}
}

// Done implements Online.
func (s *solver) Done() bool { return s.state.allDone() }

func (s *solver) ledger() *taskState { return s.state }

// begin starts an arrival by emptying the outcome buffer. It reports false
// when every task is already done and there is nothing to query.
func (s *solver) begin() bool {
	s.out = s.out[:0]
	return !s.state.allDone()
}

// grant assigns candidate c to worker w: one ledger entry, one Outcome.
func (s *solver) grant(w model.Worker, c model.Candidate) {
	s.out = append(s.out, Outcome{
		Task:      c.Task,
		Credit:    c.AccStar,
		Completed: s.state.add(w.Index, c.Task, c.AccStar),
	})
}

// scan is the candidate side of LAF's and AAM's selection loop. Both keep
// the best K of a worker's candidates, and on a hot cell a worker has
// hundreds of hits of which K can win, so the loop visits a hit only while
// the hit can still enter the top K:
//
//	for walk(w); q.Next(); { … q.Candidate() … lost() … Offer }
//
// The rule calls lost for a hit e that cannot enter — it is ineligible, or
// the top K is full and Acc*(e) does not beat its weakest score — and the
// walk then passes over every hit c farther from the worker than e. Such a c would have been offered and dropped: a spatial model
// (model.RadiusBounder) predicts no better farther away, so Acc(c) ≤ Acc(e);
// Acc* = (2·Acc − 1)² rises with Acc from 0.5 up, so with MinAcc ≥ 0.5 an
// eligible c has score(c) ≤ Acc*(c) ≤ Acc*(e) ≤ the weakest retained score,
// which only rises during an arrival, and a full top K keeps an offer only
// if it is strictly better. "Farther" carries a margin (farMargin) wide
// enough that the computed values are ordered like the exact ones, and a hit
// at an equal distance is never passed over, so ties still go to the
// first-seen task. Without a radius bound, or with MinAcc < 0.5, nothing is
// passed over and the same loop visits every hit.
type scan struct {
	ci *model.CandidateIndex
	// q is the arrival's walk, its Task and D2 the hit the loop is at.
	q model.Query
	// narrow says the argument above holds for this instance and index.
	narrow bool
}

// farMargin separates "farther" from "as far": c is farther than e when
// d²(c) > d²(e)·(1+farMargin) + farMargin. That is ≥ 5e-10 relative (or 3e-5
// absolute near zero) in distance, against the ≤ 1 ulp ≈ 1e-16 by which
// math.Hypot and math.Exp can misorder two computed predictions.
const farMargin = 1e-9

func newScan(in *model.Instance, ci *model.CandidateIndex) scan {
	return scan{ci: ci, narrow: in.MinAcc >= 0.5 && !math.IsInf(ci.Radius(), 1)}
}

// walk starts the walk over w's hits.
func (s *scan) walk(w model.Worker) { s.ci.Query(&s.q, w) }

// lost records that the current hit cannot enter the top K.
func (s *scan) lost() {
	if s.narrow {
		s.q.Narrow(s.q.D2*(1+farMargin) + farMargin)
	}
}

// QueryCounts reports, over all arrivals so far, how many hits the worker's
// eligibility disc held and how many of them the accuracy model was asked
// about.
func (s *scan) QueryCounts() (hits, evaluated int) { return s.q.Counts() }
