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
	out []Outcome
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
//	for walk(w); q.Next(); { … q.Candidate() … lost() … offer }
//
// Candidates rank by a total order, so the walk's order decides nothing (see
// bestK). The top K is top, weakest first.
//
// The rule calls lost for a hit e that cannot enter — it is ineligible, or
// the top K is full and Acc*(e) is strictly below its weakest score — and
// the walk then passes over every hit c farther from the worker than e.
// Such a c would have been offered and dropped: a spatial model
// (model.RadiusBounder) predicts no better farther away, so Acc(c) ≤ Acc(e);
// Acc* = (2·Acc − 1)² rises with Acc from 0.5 up, so with MinAcc ≥ 0.5 an
// eligible c has score(c) ≤ Acc*(c) ≤ Acc*(e) < the weakest retained score,
// which only rises during an arrival. "Farther" carries a margin (farMargin)
// wide enough that the computed values are ordered like the exact ones. A
// hit that only ties the weakest score is not lost: a farther hit may round
// to the same Acc* and win the tie on a lower TaskID. Without a radius
// bound, or with MinAcc < 0.5, nothing is passed over for its distance.
//
// AAM also floors the walk (model.Query.Floor): no AAM score exceeds the
// task's need δ − S[t], so while the top K is full a hit whose need is
// strictly below the weakest score cannot enter, and the walk passes over it
// before asking the model. It does not narrow the walk: its Acc* is unknown.
type scan struct {
	ci *model.CandidateIndex
	// q is the arrival's walk, its Task and D2 the hit the loop is at.
	q model.Query
	// narrow says the argument above holds for this instance and index.
	narrow bool
	// bestK is the arrival's best K so far; capacity K.
	bestK
}

// scored is a candidate with the score its rule ranks it by.
type scored struct {
	model.Candidate
	score float64
}

// weaker reports whether a ranks below b: a lower score, or an equal score
// on a higher TaskID.
func weaker(a, b scored) bool {
	return a.score < b.score || a.score == b.score && a.Task > b.Task
}

// bestK is the heap Q of Algorithms 1–3: the best of a worker's candidates,
// at most cap(top) of them, kept in top weakest first by weaker. Every top-K
// rule keeps its picks here — LAF, AAM, Base-off and MCF-LTC's top-up — so
// of two equal scores each keeps the lower TaskID, whatever order the
// candidates are offered in.
type bestK struct {
	top []scored
}

// newBestK returns an empty bestK of capacity k ≥ 1.
func newBestK(k int) bestK { return bestK{top: make([]scored, 0, k)} }

// reset empties b, keeping its capacity.
func (b *bestK) reset() { b.top = b.top[:0] }

// full reports whether b is full; top[0] is then the one to beat.
func (b *bestK) full() bool { return len(b.top) == cap(b.top) }

// offer puts c in its place when there is room or c ranks above the weakest
// kept, which it then evicts.
func (b *bestK) offer(c scored) {
	top, i := b.top, len(b.top)
	if i < cap(top) {
		top = top[:i+1]
		for ; i > 0 && weaker(c, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		b.top = top
	} else {
		if !weaker(top[0], c) {
			return
		}
		for i = 0; i+1 < len(top) && weaker(top[i+1], c); i++ {
			top[i] = top[i+1]
		}
	}
	top[i] = c
}

// farMargin separates "farther" from "as far": c is farther than e when
// d²(c) > d²(e)·(1+farMargin) + farMargin. That is ≥ 5e-10 relative (or 3e-5
// absolute near zero) in distance, against the ≤ 1 ulp ≈ 1e-16 by which
// math.Hypot and math.Exp can misorder two computed predictions.
const farMargin = 1e-9

func newScan(in *model.Instance, ci *model.CandidateIndex) scan {
	return scan{
		ci:     ci,
		narrow: in.MinAcc >= 0.5 && !math.IsInf(ci.Radius(), 1),
		bestK:  newBestK(in.K),
	}
}

// walk empties the top K and starts the walk over w's hits.
func (s *scan) walk(w model.Worker) {
	s.reset()
	s.ci.Query(&s.q, w)
}

// lost records that the current hit cannot enter the top K.
func (s *scan) lost() {
	if s.narrow {
		s.q.Narrow(s.q.D2*(1+farMargin) + farMargin)
	}
}

// QueryCounts reports, over all arrivals so far, how many hits in the
// workers' eligibility discs the walks examined — all of them in a walk that
// never narrowed — and how many of those the accuracy model was asked about.
func (s *scan) QueryCounts() (hits, evaluated int) { return s.q.Counts() }
