package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/pqueue"
)

// eager is the test-only oracle for LAF's and AAM's selection: the loop as it
// was before the walk, which asks the index for every candidate
// (CandidateIndex.Candidates evaluates them all) and offers every one not
// done. It shares the ledger, the grant and the top-K heap with the real
// solvers, so the only thing the comparison can find is a hit the walk
// passed over that would have been kept — or kept in a different place.
type eager struct {
	solver
	ci       *model.CandidateIndex
	cands    []model.Candidate
	laf      bool
	strategy AAMStrategy
	topk     *pqueue.TopK[scoredCandidate]
}

func newEager(in *model.Instance, ci *model.CandidateIndex, laf bool, s AAMStrategy) *eager {
	return &eager{
		solver: newSolver(in), ci: ci, laf: laf, strategy: s,
		topk: pqueue.NewTopK(in.K, func(a, b scoredCandidate) bool { return a.score < b.score }),
	}
}

func (e *eager) Name() string { return "eager" }

func (e *eager) Arrive(w model.Worker) []Outcome {
	if !e.begin() {
		return nil
	}
	useLGF := e.strategy == StrategyLGFOnly
	if e.strategy == StrategyHybrid && !e.laf {
		useLGF = e.state.lgfDominates(e.in.K)
	}
	e.cands = e.ci.Candidates(w, e.cands[:0])
	e.topk.Reset()
	for _, c := range e.cands {
		if e.state.done(c.Task) {
			continue
		}
		score := e.state.need(c.Task)
		if e.laf || (useLGF && c.AccStar < score) {
			score = c.AccStar
		}
		e.topk.Offer(scoredCandidate{Candidate: c, score: score})
	}
	for e.topk.Len() > 0 {
		e.grant(w, e.topk.PopMin().Candidate)
	}
	return e.out
}

// lazyPair is one solver and its oracle, each in an engine of its own over
// its own copy of the instance and index.
type lazyPair struct {
	name       string
	real, twin *Engine
	ins        [2]*model.Instance
	counts     func() (hits, evaluated int)
}

func newLazyPairs(in *model.Instance) []*lazyPair {
	var pairs []*lazyPair
	for _, algo := range []struct {
		name string
		laf  bool
		s    AAMStrategy
	}{{"LAF", true, 0}, {"AAM", false, StrategyHybrid}, {"AAM-LGF", false, StrategyLGFOnly}, {"AAM-LRF", false, StrategyLRFOnly}} {
		p := &lazyPair{name: algo.name}
		for i := range p.ins {
			cp := *in
			cp.Tasks = append([]model.Task(nil), in.Tasks...)
			p.ins[i] = &cp
		}
		p.real = NewEngine(p.ins[0], model.NewCandidateIndex(p.ins[0]), func(in *model.Instance, ci *model.CandidateIndex) Online {
			if algo.laf {
				l := NewLAF(in, ci)
				p.counts = l.QueryCounts
				return l
			}
			a := NewAAMWithStrategy(in, ci, algo.s)
			p.counts = a.QueryCounts
			return a
		})
		p.twin = NewEngine(p.ins[1], model.NewCandidateIndex(p.ins[1]), func(in *model.Instance, ci *model.CandidateIndex) Online {
			return newEager(in, ci, algo.laf, algo.s)
		})
		pairs = append(pairs, p)
	}
	return pairs
}

// arrive feeds w to both engines and compares the outcome sequences: task,
// credit bits, completion, order.
func (p *lazyPair) arrive(t *testing.T, w model.Worker) {
	t.Helper()
	got, want := p.real.Arrive(w), p.twin.Arrive(w)
	if len(got) != len(want) {
		t.Fatalf("%s worker %d at %v: %d grants %+v, oracle %d %+v", p.name, w.Index, w.Loc, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i].Task != want[i].Task || got[i].Completed != want[i].Completed ||
			math.Float64bits(got[i].Credit) != math.Float64bits(want[i].Credit) {
			t.Fatalf("%s worker %d at %v, grant %d: %+v, oracle %+v", p.name, w.Index, w.Loc, i, got[i], want[i])
		}
	}
}

func (p *lazyPair) post(t *testing.T, loc geo.Point, clock int) {
	t.Helper()
	for i, e := range []*Engine{p.real, p.twin} {
		nt := model.Task{ID: model.TaskID(len(p.ins[i].Tasks)), Loc: loc}
		p.ins[i].Tasks = append(p.ins[i].Tasks, nt)
		if err := e.PostTask(nt, clock); err != nil {
			t.Fatalf("%s: PostTask: %v", p.name, err)
		}
	}
}

func (p *lazyPair) retire(t *testing.T, id model.TaskID) {
	t.Helper()
	a, errA := p.real.RetireTask(id)
	b, errB := p.twin.RetireTask(id)
	if a != b || errA != nil || errB != nil {
		t.Fatalf("%s: RetireTask(%d): %t %v, oracle %t %v", p.name, id, a, errA, b, errB)
	}
}

// finish compares the two ledgers bit for bit.
func (p *lazyPair) finish(t *testing.T) {
	t.Helper()
	got, want := p.real.Credits(nil), p.twin.Credits(nil)
	for id := range want {
		if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
			t.Fatalf("%s: task %d holds credit %v, oracle %v", p.name, id, got[id], want[id])
		}
	}
	gc, gt := p.real.Progress()
	wc, wt := p.twin.Progress()
	if gc != wc || gt != wt || p.real.Arrangement().Latency() != p.twin.Arrangement().Latency() {
		t.Fatalf("%s: progress %d/%d latency %d, oracle %d/%d latency %d", p.name, gc, gt,
			p.real.Arrangement().Latency(), wc, wt, p.twin.Arrangement().Latency())
	}
}

// runLazyScript builds an instance with the geometry the walk's skipping is
// most fragile on and drives every solver beside its oracle through one
// interleaving of arrivals, posts and retirements. seed picks the accuracy
// model (the paper's at two radii, and the two without a radius bound),
// MinAcc on either side of 0.5, K and ε; tasks sit on a lattice, or a hair off
// it, so that many are at exactly or nearly the same distance from a worker
// on it; workers stand on tasks, on and off the lattice, outside the tasks'
// bounding rect, and at non-finite coordinates; historical accuracies repeat,
// and hit 1.
func runLazyScript(t *testing.T, script []byte, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x1a27))
	lattice := func() geo.Point {
		p := geo.Point{X: float64(rng.IntN(13)) * 5, Y: float64(rng.IntN(13)) * 5}
		if rng.IntN(3) == 0 { // a hair off: a ring of near-ties, one side of the margin or the other
			p.X += (rng.Float64() - 0.5) * math.Pow(10, -float64(1+rng.IntN(12)))
		}
		return p
	}
	in := &model.Instance{
		Epsilon: []float64{0.1, 0.2, 0.3}[rng.IntN(3)],
		K:       1 + rng.IntN(4),
		MinAcc:  []float64{0.3, 0.45, 0.5, 0.66, 0.8}[rng.IntN(5)],
	}
	for i, n := 0, 1+rng.IntN(60); i < n; i++ {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: lattice()})
	}
	switch rng.IntN(5) {
	case 0:
		in.Model = model.HistoricalOnly{}
	case 1:
		vals := make([][]float64, len(in.Tasks)) // posted tasks fall off the table: 0
		for i := range vals {
			vals[i] = make([]float64, len(script))
			for j := range vals[i] {
				vals[i][j] = []float64{0.2, 0.5, 0.6, 0.75, 0.9}[rng.IntN(5)]
			}
		}
		in.Model = model.MatrixAccuracy{Vals: vals}
	case 2:
		in.Model = model.SigmoidDistance{DMax: 8}
	default:
		in.Model = model.SigmoidDistance{DMax: 30}
	}
	pairs := newLazyPairs(in)
	clock := 0
	for _, b := range script {
		switch {
		case b%8 == 0:
			loc := lattice()
			if b%16 == 0 { // outside the grid's rect: filed under a border cell
				loc = geo.Point{X: 60 + float64(b), Y: -float64(b) / 3}
			}
			for _, p := range pairs {
				p.post(t, loc, clock)
			}
		case b%8 == 1:
			id := model.TaskID(int(b/8) % len(pairs[0].ins[0].Tasks))
			for _, p := range pairs {
				p.retire(t, id)
			}
		default:
			clock++
			w := model.Worker{Index: clock, Acc: []float64{0.66, 0.8, 0.8, 0.95, 1}[rng.IntN(5)]}
			switch b % 8 {
			case 2: // on a task, whatever it sits on
				w.Loc = pairs[0].ins[0].Tasks[rng.IntN(len(pairs[0].ins[0].Tasks))].Loc
			case 3: // on the lattice: rings of tasks at equal distances
				w.Loc = lattice()
			case 4: // outside the rect
				w.Loc = geo.Point{X: -10 - rng.Float64()*30, Y: 70 + rng.Float64()*10}
			case 5: // what an unvalidated check-in can carry
				w.Loc = []geo.Point{{X: math.NaN(), Y: 10}, {X: 20, Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.NaN()}, {X: 1e300, Y: -1e300}}[rng.IntN(4)]
			default:
				w.Loc = geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
			}
			for _, p := range pairs {
				p.arrive(t, w)
			}
		}
	}
	for _, p := range pairs {
		p.finish(t)
	}
}

// TestLazySelectionEquivalence is FuzzLazySelectionEquivalence's always-on
// twin: a fixed set of seeds, each with a long pseudo-random script.
func TestLazySelectionEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(rng.IntN(256))
		}
		runLazyScript(t, script, seed)
	}
}

// FuzzLazySelectionEquivalence: LAF and AAM (hybrid, LGF-only, LRF-only)
// make the grants their eager oracle makes — same tasks, same credit bits,
// same order, same completions — under any interleaving of arrivals, posts
// and retirements, on the geometry of runLazyScript. The seeded corpus runs
// under plain `go test`; `go test -fuzz FuzzLazySelectionEquivalence
// ./internal/core` hunts open-endedly.
func FuzzLazySelectionEquivalence(f *testing.F) {
	f.Add([]byte{2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 10, 11, 12, 13, 14, 15}, uint64(1))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint64(8))
	f.Add([]byte{16, 2, 2, 32, 4, 4, 9, 17, 25, 6, 6, 6, 5, 5, 2, 2, 2, 2}, uint64(42))
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244}, uint64(2018))
	f.Fuzz(func(t *testing.T, script []byte, seed uint64) {
		if len(script) > 512 {
			script = script[:512]
		}
		runLazyScript(t, script, seed)
	})
}

// TestQueryCountsOnAHotCell: 500 tasks in one grid cell, every arrival with
// hundreds of them in its disc. With MinAcc ≥ 0.5 LAF and LGF-scoring AAM ask
// the model about at most 15 % of the hits; with MinAcc < 0.5 Acc* is not
// monotone in Acc, nothing may be passed over, and they ask about every hit.
// Either way the grants are the oracle's.
func TestQueryCountsOnAHotCell(t *testing.T) {
	for _, minAcc := range []float64{0.5, 0.45} {
		rng := rand.New(rand.NewPCG(500, 6))
		in := &model.Instance{Epsilon: 0.1, K: 6, Model: model.SigmoidDistance{DMax: 30}, MinAcc: minAcc}
		for i := 0; i < 500; i++ {
			in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}})
		}
		for _, p := range newLazyPairs(in) {
			if p.name == "AAM-LRF" {
				continue // an LRF score owes nothing to the model: no hit loses by it
			}
			for i := 1; i <= 400; i++ {
				p.arrive(t, model.Worker{Index: i, Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}, Acc: 0.7 + rng.Float64()*0.3})
			}
			p.finish(t)
			hits, evaluated := p.counts()
			switch {
			case hits < 400*100:
				t.Fatalf("%s MinAcc %v: %d hits over 400 arrivals: not a hot cell", p.name, minAcc, hits)
			case minAcc >= 0.5 && float64(evaluated) > 0.15*float64(hits):
				t.Fatalf("%s MinAcc %v: evaluated %d of %d hits, want ≤ 15 %%", p.name, minAcc, evaluated, hits)
			case minAcc < 0.5 && evaluated != hits:
				t.Fatalf("%s MinAcc %v: evaluated %d of %d hits, want all", p.name, minAcc, evaluated, hits)
			}
		}
	}
}
