package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ltc/internal/geo"
	"ltc/internal/model"
	"ltc/internal/workload"
)

// eager is the test-only oracle for LAF's and AAM's selection: the loop as it
// was before the walk, which asks the index for every candidate
// (CandidateIndex.Candidates evaluates them all) and scores every one not
// done. It shares the ledger, the grant and the tie order (weaker) with the
// real solvers but not their bestK: it sorts every scored candidate and
// grants the strongest K, weakest first, so the only thing the comparison can
// find is a hit the walk passed over that would have been kept — or a buffer
// that kept the wrong ones, or put them in the wrong place. lgf and lrf count
// AAM's arrivals by the scoring rule its switch picked.
type eager struct {
	solver
	ci       *model.CandidateIndex
	cands    []model.Candidate
	all      []scored
	laf      bool
	lgf, lrf int
}

func newEager(in *model.Instance, ci *model.CandidateIndex, laf bool) *eager {
	return &eager{solver: newSolver(in), ci: ci, laf: laf}
}

func (e *eager) Name() string { return "eager" }

func (e *eager) Arrive(w model.Worker) []Outcome {
	if !e.begin() {
		return nil
	}
	useLGF := e.laf
	if !e.laf {
		if useLGF = e.state.lgfDominates(e.in.K); useLGF {
			e.lgf++
		} else {
			e.lrf++
		}
	}
	e.cands = e.ci.Candidates(w, e.cands[:0])
	e.all = e.all[:0]
	for _, c := range e.cands {
		if e.state.done(c.Task) {
			continue
		}
		score := e.state.need(c.Task)
		if e.laf || (useLGF && c.AccStar < score) {
			score = c.AccStar
		}
		e.all = append(e.all, scored{Candidate: c, score: score})
	}
	slices.SortFunc(e.all, byWeaker)
	for _, c := range e.all[max(0, len(e.all)-e.in.K):] {
		e.grant(w, c.Candidate)
	}
	return e.out
}

// byWeaker orders scored candidates weakest first.
func byWeaker(a, b scored) int {
	switch {
	case weaker(a, b):
		return -1
	case weaker(b, a):
		return 1
	}
	return 0
}

// lazyPair is one solver and its oracle, each in an engine of its own over
// its own copy of the instance and index.
type lazyPair struct {
	name       string
	real, twin *Engine
	ins        [2]*model.Instance
	counts     func() (hits, evaluated int)
	oracle     *eager
}

// newLazyPairs pairs LAF, then AAM, with their oracles.
func newLazyPairs(in *model.Instance) []*lazyPair {
	var pairs []*lazyPair
	for _, laf := range []bool{true, false} {
		p := &lazyPair{name: "AAM"}
		if laf {
			p.name = "LAF"
		}
		for i := range p.ins {
			cp := *in
			cp.Tasks = append([]model.Task(nil), in.Tasks...)
			p.ins[i] = &cp
		}
		p.real = NewEngine(p.ins[0], model.NewCandidateIndex(p.ins[0]), func(in *model.Instance, ci *model.CandidateIndex) Online {
			if laf {
				l := NewLAF(in, ci)
				p.counts = l.QueryCounts
				return l
			}
			a := NewAAM(in, ci)
			p.counts = a.QueryCounts
			return a
		})
		p.twin = NewEngine(p.ins[1], model.NewCandidateIndex(p.ins[1]), func(in *model.Instance, ci *model.CandidateIndex) Online {
			p.oracle = newEager(in, ci, laf)
			return p.oracle
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
// and hit 1. It returns how many of AAM's arrivals scored by LGF and by LRF.
func runLazyScript(t *testing.T, script []byte, seed uint64) (lgf, lrf int) {
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
	aam := pairs[1].oracle
	return aam.lgf, aam.lrf
}

// TestLazySelectionEquivalence is FuzzLazySelectionEquivalence's always-on
// twin: a fixed set of seeds, each with a long pseudo-random script. AAM's
// arrivals must take both scoring rules, so that each is held to the oracle.
func TestLazySelectionEquivalence(t *testing.T) {
	lgf, lrf := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		script := make([]byte, 400)
		for i := range script {
			script[i] = byte(rng.IntN(256))
		}
		g, r := runLazyScript(t, script, seed)
		lgf, lrf = lgf+g, lrf+r
	}
	if lgf == 0 || lrf == 0 {
		t.Fatalf("AAM scored %d arrivals by LGF and %d by LRF: both rules must run", lgf, lrf)
	}
}

// TestLazySelectionHotspot holds LAF and AAM to their oracle on the
// benchmark's skewed instance shape — the hotspot scenario at a tenth of
// Table IV, seeds 42 and 7 — where most arrivals walk a hot cell, narrow and
// floor: every arrival's grants, and the ledgers at the end. Each solver
// must have passed over some of its hits, or the case tests nothing.
func TestLazySelectionHotspot(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		cfg := workload.Default().Scale(0.1)
		cfg.Seed = seed
		scn, err := workload.NewScenario(workload.ScenarioHotspot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := scn.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range newLazyPairs(in) {
			for _, w := range in.Workers {
				p.arrive(t, w)
			}
			p.finish(t)
			if hits, evaluated := p.counts(); evaluated >= hits {
				t.Fatalf("%s seed %d: evaluated %d of %d hits, want fewer", p.name, seed, evaluated, hits)
			}
		}
	}
}

// TestTieFartherLowerTaskID: a worker's two candidates whose Acc* rounds to
// the same float64 at distances farther apart than farMargin. The nearer
// sits in the cell the walk visits first and fills the top K (K = 1); the
// farther, a hair beyond the margin, has the lower TaskID and so wins the
// tie. A skip on Acc* ≤ the weakest score would pass it over; every solver
// must grant it, as the oracle does. The committed fuzz input
// tie-farther-lower-id is the same case inside runLazyScript.
func TestTieFartherLowerTaskID(t *testing.T) {
	in := &model.Instance{Epsilon: 0.1, K: 1, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i, loc := range []geo.Point{{X: 20, Y: 30 - 5e-8}, {X: 20, Y: 50}, {X: 0, Y: 0}} {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: loc})
	}
	w := model.Worker{Index: 1, Loc: geo.Point{X: 20, Y: 40}, Acc: 0.8}
	ci := model.NewCandidateIndex(in)
	var q model.Query
	ci.Query(&q, w)
	if !q.Next() || q.Task != 1 {
		t.Fatalf("walk starts at task %d, want the nearer task 1", q.Task)
	}
	near, far := q.D2, 0.0
	for q.Next() {
		if q.Task == 0 {
			far = q.D2
		}
	}
	acc0, acc1 := in.Model.Predict(w, in.Tasks[0]), in.Model.Predict(w, in.Tasks[1])
	if model.AccStar(acc0) != model.AccStar(acc1) || !(far > near*(1+farMargin)+farMargin) {
		t.Fatalf("not the tie case: Acc* %v at d² %v, %v at d² %v", model.AccStar(acc0), far, model.AccStar(acc1), near)
	}
	for _, p := range newLazyPairs(in) {
		p.arrive(t, w)
		if got := p.real.Arrangement().Pairs; len(got) != 1 || got[0].Task != 0 {
			t.Fatalf("%s granted %+v, want task 0", p.name, got)
		}
	}
}

// TestClampedTaskAfterNarrow: tasks posted beyond the index's rect are filed
// under the border cell nearest them, whose grid rectangle then lies farther
// from a worker out there than the tasks themselves. With K = 1 the worker's
// walk narrows inside that cell, at the losing task 4, 10 away, closer than
// the cell's rectangle (15 away), and must still reach task 7, posted last
// and nearest (3 away), and grant it. A bound on the cell's rectangle, or a
// box that Insert does not widen, would drop the cell at the narrow.
func TestClampedTaskAfterNarrow(t *testing.T) {
	in := &model.Instance{Epsilon: 0.1, K: 1, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	// A 3 × 3 grid of side 30 over [0, 90]²; task 2 opens the cell at
	// column 0, row 1, 20 from the worker.
	for i, loc := range []geo.Point{{X: 0, Y: 0}, {X: 90, Y: 90}, {X: 5, Y: 45}} {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: loc})
	}
	w := model.Worker{Index: 1, Loc: geo.Point{X: -15, Y: 45}, Acc: 0.9}
	for _, p := range newLazyPairs(in) {
		// Tasks 3 to 7: 6, 10, 13, 14 and 3 from the worker.
		for _, x := range []float64{-9, -5, -2, -1, -12} {
			p.post(t, geo.Point{X: x, Y: 45}, 0)
		}
		p.arrive(t, w)
		if got := p.real.Arrangement().Pairs; len(got) != 1 || got[0].Task != 7 {
			t.Fatalf("%s granted %+v, want task 7", p.name, got)
		}
	}
}

// TestNeedTieAtTheFloor: an LRF arrival, K = 2, whose walk reads the four
// hits of the worker's own cell first: task 1 (need δ) and task 2 (need 1)
// fill the top K, and the floor's bar is task 2's need. The walk then reaches
// task 0 in the next cell, with the same need to the bit and the lower
// TaskID: the tie is task 0's, and it must be granted in place of task 2, as
// the oracle grants it. A floor that passed over a need equal to the bar
// would keep task 2.
func TestNeedTieAtTheFloor(t *testing.T) {
	in := &model.Instance{Epsilon: 0.1, K: 2, Model: model.SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	locs := []geo.Point{{X: 70, Y: 45}, {X: 45, Y: 46}, {X: 45, Y: 47}, {X: 46, Y: 45}, {X: 47, Y: 45}, {X: 0, Y: 0}, {X: 90, Y: 90}}
	for i, loc := range locs {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: loc})
	}
	ci := model.NewCandidateIndex(in)
	a, o := NewAAM(in, ci), newEager(in, ci, false)
	delta := in.Delta()
	for _, s := range []*solver{&a.solver, &o.solver} {
		for id, credit := range []float64{delta - 1, 0, delta - 1, delta - 0.5, delta - 0.5, delta, delta} {
			s.state.add(1, model.TaskID(id), credit)
		}
	}
	if a.state.need(0) != a.state.need(2) || a.state.lgfDominates(in.K) {
		t.Fatalf("not the case: needs %v and %v, LGF %t", a.state.need(0), a.state.need(2), a.state.lgfDominates(in.K))
	}
	w := model.Worker{Index: 2, Loc: geo.Point{X: 45, Y: 45}, Acc: 0.9}
	got, want := a.Arrive(w), o.Arrive(w)
	if !slices.Equal(got, want) || len(got) != 2 || got[0].Task != 0 || got[1].Task != 1 {
		t.Fatalf("AAM granted %+v, oracle %+v, want tasks 0 and 1", got, want)
	}
}

// FuzzLazySelectionEquivalence: LAF and AAM make the grants their eager
// oracle makes — same tasks, same credit bits, same order, same completions —
// under any interleaving of arrivals, posts and retirements, on the geometry
// of runLazyScript. The seeded corpus runs under plain `go test`; `go test
// -fuzz FuzzLazySelectionEquivalence ./internal/core` hunts open-endedly.
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
// hundreds of them in its disc, far more need than K workers can meet, so
// AAM scores every arrival by LGF. With MinAcc ≥ 0.5 LAF and AAM ask the
// model about at most 15 % of the hits; with MinAcc < 0.5 Acc* is not
// monotone in Acc and no hit is passed over for its distance, so LAF asks
// about every hit and AAM about every hit but those its need floor passes
// over, which must be some. Either way the grants are the oracle's.
func TestQueryCountsOnAHotCell(t *testing.T) {
	for _, minAcc := range []float64{0.5, 0.45} {
		rng := rand.New(rand.NewPCG(500, 6))
		in := &model.Instance{Epsilon: 0.1, K: 6, Model: model.SigmoidDistance{DMax: 30}, MinAcc: minAcc}
		for i := 0; i < 500; i++ {
			in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}})
		}
		for _, p := range newLazyPairs(in) {
			for i := 1; i <= 400; i++ {
				p.arrive(t, model.Worker{Index: i, Loc: geo.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}, Acc: 0.7 + rng.Float64()*0.3})
			}
			p.finish(t)
			hits, evaluated := p.counts()
			switch {
			case p.oracle.lrf > 0: // an LRF score owes nothing to the model: no hit loses by it
				t.Fatalf("%s MinAcc %v: %d arrivals scored by LRF, want none", p.name, minAcc, p.oracle.lrf)
			case hits < 400*100:
				t.Fatalf("%s MinAcc %v: %d hits over 400 arrivals: not a hot cell", p.name, minAcc, hits)
			case minAcc >= 0.5 && float64(evaluated) > 0.15*float64(hits):
				t.Fatalf("%s MinAcc %v: evaluated %d of %d hits, want ≤ 15 %%", p.name, minAcc, evaluated, hits)
			case minAcc < 0.5 && p.name == "LAF" && evaluated != hits:
				t.Fatalf("%s MinAcc %v: evaluated %d of %d hits, want all", p.name, minAcc, evaluated, hits)
			case minAcc < 0.5 && p.name == "AAM" && evaluated >= hits:
				t.Fatalf("%s MinAcc %v: evaluated %d of %d hits, want the need floor to pass some over", p.name, minAcc, evaluated, hits)
			}
		}
	}
}
