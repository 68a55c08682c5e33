package model

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"ltc/internal/geo"
)

// bruteCandidates is the oracle: scan every live task, predict, filter by
// MinAcc — exactly what CandidateIndex promises, minus the grid.
func bruteCandidates(in *Instance, tasks []Task, live []bool, w Worker) []Candidate {
	var out []Candidate
	for id, t := range tasks {
		if !live[id] {
			continue
		}
		if acc, ok := in.Eligible(w, t); ok {
			out = append(out, Candidate{Task: t.ID, Acc: acc, AccStar: AccStar(acc)})
		}
	}
	return out
}

// checkAgainstBrute compares the index's answer for every probe worker with
// the brute-force scan, element by element (order and float bits included),
// checks a narrowed walk against the same scan, and checks that every grid
// cell lists its tasks in strictly ascending id — the order a cell's walk
// and Remove's binary search rely on — inside the cell's box, which a
// narrowed walk's cell bound relies on.
func checkAgainstBrute(t *testing.T, ci *CandidateIndex, in *Instance, tasks []Task, live []bool, probes []Worker) {
	t.Helper()
	var buf []Candidate
	for _, w := range probes {
		buf = ci.Candidates(w, buf[:0])
		want := bruteCandidates(in, tasks, live, w)
		if len(buf) != len(want) {
			t.Fatalf("worker %d: %d candidates, brute force %d", w.Index, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("worker %d candidate %d: got %+v, want %+v", w.Index, i, buf[i], want[i])
			}
		}
		checkNarrowedWalk(t, ci, tasks, live, w)
	}
	if ci.grid == nil {
		return
	}
	for n, c := range ci.grid.cells {
		if len(c.pts) != len(c.ids) {
			t.Fatalf("cell %d: %d ids, %d points", n, len(c.ids), len(c.pts))
		}
		for i, id := range c.ids {
			if i > 0 && c.ids[i-1] >= id {
				t.Fatalf("cell %d not in strictly ascending id: %v", n, c.ids)
			}
			if loc := tasks[id].Loc; !live[id] || c.pts[i] != loc {
				t.Fatalf("cell %d entry %d: task %d (live %v) at %v, want %v", n, i, id, live[id], c.pts[i], loc)
			}
			if p := c.pts[i]; p.X < c.lo.X || p.Y < c.lo.Y || p.X > c.hi.X || p.Y > c.hi.Y {
				t.Fatalf("cell %d entry %d at %v outside the cell's box %v–%v", n, i, p, c.lo, c.hi)
			}
		}
	}
}

// checkNarrowedWalk walks w's hits, narrows the walk at the first hit to the
// median hit distance, and checks the walk against the brute-force scan as a
// set, since the walk's order is the grid's: the hits come with their exact
// squared distance, each once, and besides the first hit, returned whatever
// its distance, the walk returns exactly the hits within the Narrow. A walk
// that never narrowed examines and predicts every hit in the disc; a
// narrowed one examines at most the disc and predicts at most what it
// examined. A second walk, never narrowed, must count every hit.
func checkNarrowedWalk(t *testing.T, ci *CandidateIndex, tasks []Task, live []bool, w Worker) {
	t.Helper()
	type hit struct {
		task TaskID
		d2   float64
	}
	var disc []hit // brute force: the live tasks in w's disc
	for id, tk := range tasks {
		if !live[id] {
			continue
		}
		if ci.grid == nil {
			disc = append(disc, hit{task: tk.ID})
		} else if dx, dy := tk.Loc.X-w.Loc.X, tk.Loc.Y-w.Loc.Y; dx*dx+dy*dy <= ci.radius*ci.radius {
			disc = append(disc, hit{tk.ID, dx*dx + dy*dy})
		}
	}
	within := math.Inf(1)
	if len(disc) > 0 {
		d2s := make([]float64, len(disc))
		for i, h := range disc {
			d2s[i] = h.d2
		}
		slices.Sort(d2s)
		within = d2s[len(d2s)/2]
	}
	var q Query
	hits0, _ := q.Counts()
	var got []hit
	for ci.Query(&q, w); q.Next(); {
		got = append(got, hit{q.Task, q.D2})
		q.Narrow(within)
		if c, _ := q.Candidate(); c.Task != q.Task || c.Acc != q.Acc || c.AccStar != AccStar(q.Acc) {
			t.Fatalf("worker %d: Candidate %+v at hit %d, Acc %v", w.Index, c, q.Task, q.Acc)
		}
	}
	var want []hit // in ascending id, like disc
	for _, h := range disc {
		if h.d2 <= within || len(got) > 0 && h == got[0] {
			want = append(want, h)
		}
	}
	set := slices.SortedFunc(slices.Values(got), func(a, b hit) int { return cmp.Compare(a.task, b.task) })
	if !slices.Equal(set, want) {
		t.Fatalf("worker %d: walk narrowed to %v returned %v, want %v in any order", w.Index, within, got, want)
	}
	narrowed := ci.grid != nil && len(got) > 0 && within < ci.radius*ci.radius
	hits, predicted := q.Counts()
	if hits -= hits0; predicted < len(got) || predicted > hits || hits > len(disc) || !narrowed && (hits != len(disc) || predicted != hits) {
		t.Fatalf("worker %d: walk (narrowed %t) counted %d hits, %d predictions; disc holds %d, %d returned", w.Index, narrowed, hits, predicted, len(disc), len(got))
	}
	for ci.Query(&q, w); q.Next(); {
	}
	if h, p := q.Counts(); h-hits0-hits != len(disc) || p-predicted != len(disc) {
		t.Fatalf("worker %d: a walk never narrowed counted %d hits, %d predictions; disc holds %d", w.Index, h-hits0-hits, p-predicted, len(disc))
	}
}

// runLifecycleScript drives one deterministic interleaving of insert/remove
// against the index and the shadow task list, probing after every step.
// width is the spatial extent; some posted tasks deliberately land outside
// it (the clamped-border-cell path). The probes are twelve random workers
// and the given ones.
func runLifecycleScript(t *testing.T, in *Instance, seed uint64, steps int, width float64, probes ...Worker) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	ci := NewCandidateIndex(in)
	tasks := append([]Task(nil), in.Tasks...)
	live := make([]bool, len(tasks))
	for i := range live {
		live[i] = true
	}
	for i := 0; i < 12; i++ {
		probes = append(probes, Worker{
			Index: len(probes) + 1,
			Loc:   geo.Point{X: rng.Float64()*width*1.4 - 0.2*width, Y: rng.Float64()*width*1.4 - 0.2*width},
			Acc:   0.7 + rng.Float64()*0.3,
		})
	}

	for step := 0; step < steps; step++ {
		switch op := rng.IntN(3); {
		case op == 0 || numLive(ci) == 0: // insert
			loc := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}
			if rng.IntN(8) == 0 { // outside the initial bounding rect
				loc = geo.Point{X: width + rng.Float64()*width, Y: -rng.Float64() * width}
			}
			nt := Task{ID: TaskID(len(tasks)), Loc: loc}
			if err := ci.Insert(nt); err != nil {
				t.Fatalf("step %d: Insert: %v", step, err)
			}
			tasks = append(tasks, nt)
			live = append(live, true)
		case op == 1: // remove a random live task
			id := TaskID(rng.IntN(len(tasks)))
			if !live[id] {
				if err := ci.Remove(id); err == nil {
					t.Fatalf("step %d: double Remove(%d) accepted", step, id)
				}
				continue
			}
			if err := ci.Remove(id); err != nil {
				t.Fatalf("step %d: Remove(%d): %v", step, id, err)
			}
			live[id] = false
		default: // probe-only step
		}
		if ci.NumTasks() != len(tasks) {
			t.Fatalf("step %d: NumTasks %d, want %d", step, ci.NumTasks(), len(tasks))
		}
		checkAgainstBrute(t, ci, in, tasks, live, probes)
		checkAgainstBrute(t, ci.Clone(), in, tasks, live, probes[:2])
	}
}

// TestCandidateIndexLifecycleProperty: under bounded random interleavings
// of insert/remove, queries always equal a brute-force distance scan —
// for the grid path (SigmoidDistance bounds the radius) and the unbounded
// path (HistoricalOnly has no radius).
func TestCandidateIndexLifecycleProperty(t *testing.T) {
	const width = 120.0
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		nTasks := 1 + rng.IntN(40)
		gridIn := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
		flatIn := &Instance{Epsilon: 0.1, K: 4, Model: HistoricalOnly{}, MinAcc: 0.8}
		for i := 0; i < nTasks; i++ {
			loc := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}
			gridIn.Tasks = append(gridIn.Tasks, Task{ID: TaskID(i), Loc: loc})
			flatIn.Tasks = append(flatIn.Tasks, Task{ID: TaskID(i), Loc: loc})
		}
		runLifecycleScript(t, gridIn, seed*31+1, 60, width)
		runLifecycleScript(t, flatIn, seed*31+2, 60, width)
	}

	// A hot cell: 520 tasks in the cell [30, 60)², a few dozen in each of its
	// neighbours, ids interleaved across the cells. Probes on the hot cell's
	// corners merge nine runs, the one in the rect's corner four, and the one
	// in the hot cell's centre reaches into all nine with most hits in one.
	rng := rand.New(rand.NewPCG(5, 99))
	hot := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	hot.Tasks = []Task{{ID: 0}, {ID: 1, Loc: geo.Point{X: width, Y: width}}} // pin the grid's rect
	for len(hot.Tasks) < 800 {
		loc := geo.Point{X: 30 + rng.Float64()*30, Y: 30 + rng.Float64()*30}
		if len(hot.Tasks)%3 == 0 {
			loc = geo.Point{X: rng.Float64() * 90, Y: rng.Float64() * 90}
		}
		hot.Tasks = append(hot.Tasks, Task{ID: TaskID(len(hot.Tasks)), Loc: loc})
	}
	var corners []Worker
	for _, loc := range []geo.Point{{X: 30, Y: 30}, {X: 60, Y: 30}, {X: 30, Y: 60}, {X: 60, Y: 60}, {X: 45, Y: 45}, {X: 1, Y: 1}} {
		corners = append(corners, Worker{Index: len(corners) + 1, Loc: loc, Acc: 0.95})
	}
	ci := NewCandidateIndex(hot)
	if n := len(ci.grid.cells[ci.grid.Index(geo.Point{X: 45, Y: 45})].ids); n < 500 {
		t.Fatalf("hot cell holds %d tasks, want ≥ 500", n)
	}
	runLifecycleScript(t, hot, 77, 40, width, corners...)
}

// TestCandidateIndexCloneIsIndependent: a clone answers as its original did
// at the moment of copying, and from then on neither side sees the other's
// writes — inserts land in every occupied cell of one side (the clone's
// cells share backing blocks, so a leaked append would overwrite a
// neighbouring cell) while the other side removes.
func TestCandidateIndexCloneIsIndependent(t *testing.T) {
	const width = 120.0
	rng := rand.New(rand.NewPCG(24, 99))
	gridIn := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	flatIn := &Instance{Epsilon: 0.1, K: 4, Model: HistoricalOnly{}, MinAcc: 0.8}
	for i := 0; i < 40; i++ {
		loc := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}
		gridIn.Tasks = append(gridIn.Tasks, Task{ID: TaskID(i), Loc: loc})
		flatIn.Tasks = append(flatIn.Tasks, Task{ID: TaskID(i), Loc: loc})
	}
	probes := make([]Worker, 12)
	for i := range probes {
		probes[i] = Worker{Index: i + 1, Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}, Acc: 0.9}
	}
	for _, in := range []*Instance{gridIn, flatIn} {
		for _, writeClone := range []bool{false, true} {
			a := NewCandidateIndex(in)
			if err := a.Remove(3); err != nil {
				t.Fatal(err)
			}
			b := a.Clone()
			if numLive(b) != numLive(a) || b.NumTasks() != a.NumTasks() || b.Radius() != a.Radius() {
				t.Fatalf("clone has %d/%d tasks live, radius %v; original %d/%d, %v",
					numLive(b), b.NumTasks(), b.Radius(), numLive(a), a.NumTasks(), a.Radius())
			}
			grows, shrinks := a, b
			if writeClone {
				grows, shrinks = b, a
			}
			grown := append([]Task(nil), in.Tasks...)
			grownLive, shrunkLive := make([]bool, len(grown)), make([]bool, len(grown))
			for i := range grown {
				grownLive[i], shrunkLive[i] = i != 3, i != 3 && i%2 == 0
				if i%2 == 1 && i != 3 {
					if err := shrinks.Remove(TaskID(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, src := range in.Tasks {
				nt := Task{ID: TaskID(len(grown)), Loc: src.Loc}
				if err := grows.Insert(nt); err != nil {
					t.Fatal(err)
				}
				grown, grownLive = append(grown, nt), append(grownLive, true)
			}
			checkAgainstBrute(t, grows, in, grown, grownLive, probes)
			checkAgainstBrute(t, shrinks, in, in.Tasks, shrunkLive, probes)
		}
	}
}

// TestCandidateIndexLifecycleConcurrent: the index under its single-owner
// contract, with one sync.RWMutex standing in for the shard mutex — readers
// query and run the bulk helpers under the read lock (concurrent queries
// write nothing), the writer inserts and removes under the write lock. Under
// -race this pins both halves: shared queries are race-free, and in-place
// mutation is safe under the owner's exclusion. With the lock held the
// shadow state is stable, so every mid-churn answer must equal brute force.
func TestCandidateIndexLifecycleConcurrent(t *testing.T) {
	const width = 100.0
	rng := rand.New(rand.NewPCG(17, 23))
	in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i := 0; i < 50; i++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}})
	}
	for w := 1; w <= 30; w++ {
		in.Workers = append(in.Workers, Worker{
			Index: w,
			Loc:   geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width},
			Acc:   0.8 + rng.Float64()*0.2,
		})
	}
	ci := NewCandidateIndex(in)

	var mu sync.RWMutex // the owner's lock: guards the index and the shadow state
	tasks := append([]Task(nil), in.Tasks...)
	live := make([]bool, len(tasks))
	for i := range live {
		live[i] = true
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewPCG(uint64(g), 7))
			var buf []Candidate
			for i := 0; i < 2000; i++ {
				w := Worker{Index: 1, Loc: geo.Point{X: qrng.Float64() * width, Y: qrng.Float64() * width}, Acc: 0.9}
				mu.RLock()
				buf = ci.Candidates(w, buf[:0])
				want := bruteCandidates(in, tasks, live, w)
				mu.RUnlock()
				if !slices.Equal(buf, want) {
					t.Errorf("reader %d query %d: got %v, brute force %v", g, i, buf, want)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // bulk helpers: task-indexed outputs cover the whole dense space
		defer wg.Done()
		for i := 0; i < 300; i++ {
			mu.RLock()
			nLists, nCredit, nTasks := len(ci.EligibleWorkerLists()), len(ci.MaxPossibleCredit()), len(tasks)
			_ = ci.CheckFeasible() // may legitimately flag scarce tasks; must not panic
			mu.RUnlock()
			if nLists != nTasks || nCredit != nTasks {
				t.Errorf("bulk helpers cover %d / %d tasks, want %d", nLists, nCredit, nTasks)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		wrng := rand.New(rand.NewPCG(5, 11))
		for i := 0; i < 400; i++ {
			mu.Lock()
			if wrng.IntN(2) == 0 {
				nt := Task{ID: TaskID(len(tasks)), Loc: geo.Point{X: wrng.Float64() * width, Y: wrng.Float64() * width}}
				if err := ci.Insert(nt); err != nil {
					t.Errorf("Insert: %v", err)
					mu.Unlock()
					return
				}
				tasks = append(tasks, nt)
				live = append(live, true)
			} else {
				id := TaskID(wrng.IntN(len(tasks)))
				if live[id] {
					if err := ci.Remove(id); err != nil {
						t.Errorf("Remove: %v", err)
						mu.Unlock()
						return
					}
					live[id] = false
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()

	probes := make([]Worker, 20)
	prng := rand.New(rand.NewPCG(3, 1))
	for i := range probes {
		probes[i] = Worker{Index: i + 1, Loc: geo.Point{X: prng.Float64() * width, Y: prng.Float64() * width}, Acc: 0.85}
	}
	checkAgainstBrute(t, ci, in, tasks, live, probes)
}

// FuzzCandidateIndexLifecycle feeds arbitrary op scripts (bytes → insert /
// remove / probe) to the index and cross-checks against brute force. The
// bounded corpus runs under plain `go test`; run `go test -fuzz
// FuzzCandidateIndexLifecycle ./internal/model` for an open-ended hunt.
func FuzzCandidateIndexLifecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint64(1))
	f.Add([]byte{10, 200, 30, 40, 250, 60, 70, 80}, uint64(42))
	f.Add([]byte{255, 0, 255, 0, 255, 0}, uint64(7))
	// Swap-delete edge cases. Seed 16 starts from one task, so the grid is a
	// single cell listing every task in insertion order; four inserts make it
	// [0 1 2 3 4]. Each script then removes the cell's first, a middle or its
	// last entry (a remove byte b ≡ 1 mod 3 picks id b mod NumTasks),
	// re-inserts, and does it once more on the reshuffled cell; the last one
	// empties a one-entry cell and refills it.
	f.Add([]byte{90, 93, 96, 99, 10, 96, 4, 99}, uint64(16))     // first: id 0, then id 4 swapped into its slot
	f.Add([]byte{90, 93, 96, 99, 7, 96, 4, 93}, uint64(16))      // middle: id 2, then id 4 swapped into its slot
	f.Add([]byte{90, 93, 96, 99, 4, 96, 99, 13, 90}, uint64(16)) // last: id 4, then id 6
	f.Add([]byte{10, 96, 1, 96}, uint64(16))                     // only entry: id 0, then id 1
	f.Fuzz(func(t *testing.T, script []byte, seed uint64) {
		if len(script) > 256 {
			script = script[:256]
		}
		const width = 80.0
		rng := rand.New(rand.NewPCG(seed, seed^0x5555))
		in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
		n := 1 + int(seed%16)
		for i := 0; i < n; i++ {
			in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: geo.Point{X: rng.Float64() * width, Y: rng.Float64() * width}})
		}
		ci := NewCandidateIndex(in)
		tasks := append([]Task(nil), in.Tasks...)
		live := make([]bool, len(tasks))
		for i := range live {
			live[i] = true
		}
		probe := Worker{Index: 1, Loc: geo.Point{X: width / 2, Y: width / 2}, Acc: 0.9}
		for _, b := range script {
			switch b % 3 {
			case 0:
				nt := Task{ID: TaskID(len(tasks)), Loc: geo.Point{
					X: float64(b)*width/128 - width/4, Y: rng.Float64() * width}}
				if err := ci.Insert(nt); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				tasks = append(tasks, nt)
				live = append(live, true)
			case 1:
				id := TaskID(int(b) % len(tasks))
				if live[id] {
					if err := ci.Remove(id); err != nil {
						t.Fatalf("Remove: %v", err)
					}
					live[id] = false
				}
			default:
				probe.Loc = geo.Point{X: float64(b) * width / 255, Y: float64(255-b) * width / 255}
			}
			checkAgainstBrute(t, ci, in, tasks, live, []Worker{probe})
		}
	})
}
