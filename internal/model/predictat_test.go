package model

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ltc/internal/geo"
)

// TestPredictAtIsPredict: the spatial model asked about a location answers
// with the same bits as asked about a task there — for the paper's model, and
// through the shard wrapper, whose Predict goes by the source task and whose
// PredictAt goes straight to the source model.
func TestPredictAtIsPredict(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	src := &Instance{Epsilon: 0.1, K: 3, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 200; i++ {
		src.Tasks = append(src.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}})
	}
	var odd []TaskID
	for i := 1; i < len(src.Tasks); i += 2 {
		odd = append(odd, TaskID(i))
	}
	sub := NewSubInstance(src, odd)
	posted := sub.AppendTask(Task{ID: 999, Loc: geo.Point{X: 17.25, Y: -3.5}})
	rb, ok := sub.In.Model.(RadiusBounder)
	if !ok {
		t.Fatal("shard of a spatial model is not a RadiusBounder")
	}
	sig := src.Model.(SigmoidDistance)
	for i := 0; i < 20000; i++ {
		w := Worker{Index: i + 1, Loc: geo.Point{X: rng.Float64()*400 - 50, Y: rng.Float64()*400 - 50}, Acc: 0.66 + rng.Float64()*0.34}
		st := src.Tasks[rng.IntN(len(src.Tasks))]
		if a, b := sig.Predict(w, st), sig.PredictAt(w, st.Loc); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("SigmoidDistance: Predict %v, PredictAt %v", a, b)
		}
		lt := sub.In.Tasks[rng.IntN(len(sub.In.Tasks))]
		if i%100 == 0 {
			lt = posted
		}
		if a, b := sub.In.Model.Predict(w, lt), rb.PredictAt(w, lt.Loc); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("shard model, local task %d: Predict %v, PredictAt %v", lt.ID, a, b)
		}
	}
}

// TestComputedAccuracyOrderedByDistance is the floating-point half of the
// argument by which an online solver stops visiting hits farther than one
// that lost (core's scan): whenever the index's computed squared distances
// say far is farther than near by the solvers' margin — d²(far) >
// d²(near)·(1+1e-9) + 1e-9 — the computed prediction for far is no higher,
// and from 0.5 up neither is the computed Acc*. Over a million triples, with
// the distances the margin is tightest at: next to zero, next to the
// eligibility radius, and far barely beyond the margin.
func TestComputedAccuracyOrderedByDistance(t *testing.T) {
	const margin = 1e-9
	m := SigmoidDistance{DMax: 30}
	radius := m.EligibilityRadius(0.5)
	rng := rand.New(rand.NewPCG(2018, 4))
	at := func(w Worker, d float64) (geo.Point, float64) {
		sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
		p := geo.Point{X: w.Loc.X + d*cos, Y: w.Loc.Y + d*sin}
		dx, dy := p.X-w.Loc.X, p.Y-w.Loc.Y // as the index computes it
		return p, dx*dx + dy*dy
	}
	checked := 0
	for checked < 1_000_000 {
		w := Worker{Index: 1, Loc: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, Acc: 0.66 + rng.Float64()*0.34}
		if rng.IntN(8) == 0 {
			w.Acc = 1
		}
		var dNear float64
		switch rng.IntN(4) {
		case 0:
			dNear = rng.Float64() * 1e-3
		case 1:
			dNear = radius * (1 - rng.Float64()*1e-6)
		default:
			dNear = rng.Float64() * radius
		}
		near, d2Near := at(w, dNear)
		dFar := math.Sqrt(d2Near*(1+margin) + margin)
		if rng.IntN(2) == 0 {
			dFar *= 1 + rng.Float64()*1e-9
		} else {
			dFar += rng.Float64() * (radius - dFar)
		}
		far, d2Far := at(w, dFar)
		if !(d2Far > d2Near*(1+margin)+margin) {
			continue // rounding put far inside the margin: the solver would visit it
		}
		checked++
		accNear, accFar := m.PredictAt(w, near), m.PredictAt(w, far)
		if accFar > accNear {
			t.Fatalf("worker %+v: near %v (d² %v) predicts %v, far %v (d² %v) predicts %v", w, near, d2Near, accNear, far, d2Far, accFar)
		}
		if accFar >= 0.5 && AccStar(accFar) > AccStar(accNear) {
			t.Fatalf("worker %+v: Acc* %v at d² %v above %v at d² %v", w, AccStar(accFar), d2Far, AccStar(accNear), d2Near)
		}
	}
}

// TestQuerySpillsBeyondNineRuns: the walk keeps nine cursors in place, the
// most a disc needs when the cells are as wide as the radius, and spills to
// the heap beyond — which only rounding could cause, so this test narrows the
// index's cells to a third of the radius, where a disc has hits in up to 49
// of them. The answers stay the brute-force ones, as a set, in a Query
// reused across spilling and ordinary walks. Over these many-cell windows the
// walk leaves ascending TaskID, and Candidates still returns it.
func TestQuerySpillsBeyondNineRuns(t *testing.T) {
	const width = 120.0
	rng := rand.New(rand.NewPCG(9, 49))
	in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 600; i++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}})
	}
	ci := NewCandidateIndex(in)
	ci.grid = newCellGrid(ci.tasks, ci.radius/3)
	live := make([]bool, len(in.Tasks))
	for i := range live {
		live[i] = true
	}
	var probes []Worker
	for i := 0; i < 40; i++ {
		probes = append(probes, Worker{Index: i + 1, Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}, Acc: 0.9})
	}
	checkAgainstBrute(t, ci, in, in.Tasks, live, probes)

	var q Query
	for _, loc := range []geo.Point{{X: 60, Y: 60}, {X: -25, Y: -25}, {X: 60, Y: 60}} {
		w := Worker{Index: 1, Loc: loc, Acc: 0.9}
		var got []TaskID
		for ci.Query(&q, w); q.Next(); {
			if _, ok := q.Candidate(); ok {
				got = append(got, q.Task)
			}
		}
		want := bruteCandidates(in, in.Tasks, live, w)
		if loc.X > 0 && slices.IsSorted(got) {
			t.Fatalf("worker at %v: a %d-hit walk over many cells came in ascending id", loc, len(got))
		}
		if set := slices.Sorted(slices.Values(got)); len(set) != len(want) {
			t.Fatalf("worker at %v: %d candidates, brute force %d", loc, len(got), len(want))
		} else {
			for i := range set {
				if set[i] != want[i].Task {
					t.Fatalf("worker at %v: candidate %d is task %d, brute force %d", loc, i, set[i], want[i].Task)
				}
			}
		}
		cands := ci.Candidates(w, nil)
		if !slices.IsSortedFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.Task, b.Task) }) || !slices.Equal(cands, want) {
			t.Fatalf("worker at %v: Candidates %v, want %v in ascending TaskID", loc, cands, want)
		}
	}
}
