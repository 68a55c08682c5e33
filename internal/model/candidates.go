package model

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ltc/internal/geo"
)

// Candidate is a task a given worker is eligible to perform, with its
// predicted accuracy and quality credit.
type Candidate struct {
	Task    TaskID
	Acc     float64
	AccStar float64
}

// CandidateIndex answers "which tasks may this worker perform?" — the inner
// loop of every LTC algorithm. When the instance's accuracy model bounds
// eligibility by distance (RadiusBounder), candidates come from a uniform
// grid over task locations; otherwise every task is checked.
//
// There are two ways to ask, both answered in ascending TaskID. Candidates
// returns every task the worker is eligible for, which takes asking the
// accuracy model about every hit — every live task in the worker's
// eligibility disc. A Query walks the hits and can be told to Narrow: an
// online solver that keeps the best K of a worker's candidates narrows the
// walk as hits lose (see core's scan), and on a hot cell that leaves most of
// the disc unvisited and unasked about.
//
// The index supports online task lifecycle: Insert adds a task to its grid
// cell and Remove drops it, both in place (no rebuild, no copy). It is a
// single-owner structure: the core.Engine an index is handed to owns it and
// is its only writer — it inserts posted and migrated-in tasks and removes
// retired, migrated-out and completed ones, so under an engine a task is
// live exactly while it is open (below δ, not retired) and a query pays for
// open tasks only. An index no engine was handed is never written: offline
// solvers, bare solvers and any number of concurrent queries may share it,
// and Clone gives a run that will mutate its own copy. Insert and Remove
// need the caller's exclusion against every other call — the dispatch
// layer's shard mutex provides it.
type CandidateIndex struct {
	in     *Instance
	radius float64 // +Inf when the model gives no bound
	// tasks is the dense task table (removed tasks keep their slot), live
	// its liveness mask.
	tasks []Task
	live  []bool
	// grid and spatial are set together: nil when the radius is unbounded.
	grid    *cellGrid
	spatial RadiusBounder
}

// cellGrid buckets task ids into square cells over the initial bounding
// rect. Tasks posted outside the rect clamp into the border cells (queries
// clamp the same way, and the exact distance check filters, so correctness
// is unaffected).
type cellGrid struct {
	geo.TileGrid
	cells []cell
}

// cell is one grid bucket in struct-of-arrays layout: ids[i] is the task at
// (xs[i], ys[i]), in strictly ascending id — task ids only grow, so add
// appends, and remove closes the gap. A query therefore reads its window as
// a few sorted runs and merges them instead of sorting its hits. Keeping the
// coordinates beside the ids lets the radius filter sweep two contiguous
// float64 arrays, and the spatial model read a hit's location, without
// gathering Task structs through the dense task table — the hot loop of
// every candidate query touches only these slices.
type cell struct {
	ids []int32
	xs  []float64
	ys  []float64
}

func (c *cell) add(id int32, p geo.Point) {
	c.ids = append(c.ids, id)
	c.xs = append(c.xs, p.X)
	c.ys = append(c.ys, p.Y)
}

// remove deletes task id, found by binary search, keeping the order. A live
// task is listed in its cell (Remove checks liveness first).
func (c *cell) remove(id int32) {
	i, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Delete(c.ids, i, i+1)
	c.xs = slices.Delete(c.xs, i, i+1)
	c.ys = slices.Delete(c.ys, i, i+1)
}

// Lifecycle errors returned by Insert and Remove.
var (
	ErrTaskIDNotDense = errors.New("model: inserted task ID must extend the dense ID space")
	ErrUnknownTask    = errors.New("model: unknown task ID")
)

// NewCandidateIndex builds the candidate index for an instance. The initial
// task set is copied, so later Inserts never alias the instance's slice.
func NewCandidateIndex(in *Instance) *CandidateIndex {
	ci := &CandidateIndex{
		in:     in,
		radius: math.Inf(1),
		tasks:  append([]Task(nil), in.Tasks...),
		live:   make([]bool, len(in.Tasks)),
	}
	for i := range ci.live {
		ci.live[i] = true
	}
	rb, ok := in.Model.(RadiusBounder)
	if ok {
		ci.radius = rb.EligibilityRadius(in.MinAcc)
	}
	if !math.IsInf(ci.radius, 1) {
		side := ci.radius
		if side <= 0 {
			side = 1
		}
		ci.grid, ci.spatial = newCellGrid(ci.tasks, side), rb
	}
	return ci
}

// Clone returns an independent copy of the index in its current state: task
// table, liveness mask and grid cells are copied, the instance (read-only) is
// shared. An engine owns the index it is handed, so a caller that wants to
// run several engines from one prebuilt index hands each a clone.
func (ci *CandidateIndex) Clone() *CandidateIndex {
	cp := *ci
	cp.tasks = append([]Task(nil), ci.tasks...)
	cp.live = append([]bool(nil), ci.live...)
	if ci.grid != nil {
		cp.grid = ci.grid.clone()
	}
	return &cp
}

// clone copies the grid into freshly carved cells.
func (g *cellGrid) clone() *cellGrid {
	size := make([]int, len(g.cells))
	for i := range g.cells {
		size[i] = len(g.cells[i].ids)
	}
	cp := &cellGrid{TileGrid: g.TileGrid}
	cp.carve(size)
	for i := range cp.cells {
		c, src := &cp.cells[i], &g.cells[i]
		c.ids, c.xs, c.ys = append(c.ids, src.ids...), append(c.xs, src.xs...), append(c.ys, src.ys...)
	}
	return cp
}

// carve gives the grid one empty cell per entry of size, cutting cell i's
// arrays from three shared blocks with capacity size[i]: filling a cell to
// its size never reallocates, and an append beyond it reallocates that cell
// alone. A cell of size 0 keeps nil arrays.
func (g *cellGrid) carve(size []int) {
	total := 0
	for _, k := range size {
		total += k
	}
	ids, xs, ys := make([]int32, total), make([]float64, total), make([]float64, total)
	g.cells = make([]cell, len(size))
	lo := 0
	for i, k := range size {
		if k > 0 {
			hi := lo + k
			g.cells[i] = cell{ids: ids[lo:lo:hi], xs: xs[lo:lo:hi], ys: ys[lo:lo:hi]}
			lo = hi
		}
	}
}

// newCellGrid buckets the tasks into square cells of the given side over
// their bounding rect: it counts the tasks per cell, carves the cells, then
// fills them in task order, so every cell lists ascending ids.
func newCellGrid(tasks []Task, side float64) *cellGrid {
	pts := make([]geo.Point, len(tasks))
	for i, t := range tasks {
		pts[i] = t.Loc
	}
	rect, _ := geo.BoundingRect(pts)
	g := &cellGrid{TileGrid: geo.SquareTileGrid(rect, side)}
	at, count := make([]int32, len(pts)), make([]int, g.NumTiles())
	for i, p := range pts {
		at[i] = int32(g.Index(p))
		count[at[i]]++
	}
	g.carve(count)
	for i, p := range pts {
		g.cells[at[i]].add(int32(i), p)
	}
	return g
}

// Radius returns the eligibility radius in effect (+Inf when unbounded).
func (ci *CandidateIndex) Radius() float64 { return ci.radius }

// NumTasks returns the size of the dense TaskID space: every id in
// [0, NumTasks) has been inserted at some point (retired ids included).
func (ci *CandidateIndex) NumTasks() int { return len(ci.tasks) }

// Live reports whether the task id is known and not removed — under an
// engine, whether the task is still open.
func (ci *CandidateIndex) Live(id TaskID) bool {
	return id >= 0 && int(id) < len(ci.live) && ci.live[id]
}

// Insert adds a newly posted task to the index. The task's ID must extend
// the dense ID space (ID == NumTasks()) — the index is the ID authority's
// mirror, not an allocator. The caller must exclude every other call on the
// index for the duration.
func (ci *CandidateIndex) Insert(t Task) error {
	if int(t.ID) != len(ci.tasks) {
		return fmt.Errorf("%w: got %d, want %d", ErrTaskIDNotDense, t.ID, len(ci.tasks))
	}
	ci.tasks = append(ci.tasks, t)
	ci.live = append(ci.live, true)
	if g := ci.grid; g != nil {
		g.cells[g.Index(t.Loc)].add(int32(t.ID), t.Loc)
	}
	return nil
}

// Remove drops a task from the index: its grid cell no longer lists it and
// it stops appearing in Candidates. The id stays allocated (dense space
// never shrinks). Removing an unknown or already-removed id is an error.
// The caller must exclude every other call on the index for the duration.
func (ci *CandidateIndex) Remove(id TaskID) error {
	if !ci.Live(id) {
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	ci.live[id] = false
	if g := ci.grid; g != nil {
		g.cells[g.Index(ci.tasks[id].Loc)].remove(int32(id))
	}
	return nil
}

// Candidates appends to dst every live task worker w is eligible for and
// returns the extended slice. Candidates are ordered by ascending TaskID.
// A query reads the index and writes only dst, so concurrent queries on one
// shared index are safe as long as no Insert or Remove runs beside them.
func (ci *CandidateIndex) Candidates(w Worker, dst []Candidate) []Candidate {
	var q Query
	for ci.Query(&q, w); q.Next(); {
		if c, ok := q.Candidate(); ok {
			dst = append(dst, c)
		}
	}
	return dst
}

// Query is one worker's walk over its hits — the live tasks within the
// eligibility radius, every live task when there is no radius — in ascending
// TaskID, each with the accuracy model's prediction. The walk reads the index
// and writes only the Query, so it follows Candidates' concurrency rule, and
// a Query is reusable: CandidateIndex.Query restarts it, keeping nothing of
// the last walk but Counts.
//
// On the grid every cell of the query window is a run already in ascending
// id and a task sits in one cell only, so the next hit is the smallest head
// among the runs: a cursor merge, no buffer, no sort. The radius filter reads
// each cell's xs/ys arrays directly, and the spatial model is asked about a
// hit where the merge found it, at the cell's own coordinates.
//
// The model is asked about readAhead hits at a time, before the caller sees
// the first of them: a prediction is a long chain of dependent floating-point
// steps, what the caller does with it branches on the result, and asked one
// at a time each prediction would wait for the last one's branches. A Narrow
// therefore comes too late for the (at most readAhead − 1) predictions
// already made beyond it; Next passes those hits over all the same.
type Query struct {
	// Task, D2 and Acc describe the current hit after a true Next: the task,
	// its squared distance from the worker (0 when there is no radius) and
	// the predicted accuracy.
	Task TaskID
	D2   float64
	Acc  float64

	ci *CandidateIndex
	w  Worker
	// disc2 is the squared eligibility radius, within2 the squared distance
	// the walk still visits: disc2 until Narrow lowers it.
	disc2, within2 float64
	// The grid walk's cursors with a hit left, in no particular order: the
	// first n of buf, or of spill in a walk that started with more than buf
	// holds.
	buf   [windowRuns]run
	spill []run
	n     int
	pos   int // no grid: the next id to look at
	// ahead[next:filled] are the hits read ahead and not yet returned.
	ahead        [readAhead]hit
	next, filled int
	// hits and predicted count over all the Query's walks.
	hits, predicted int
}

// readAhead is how many predictions a Query makes in one go. Two, four and
// eight measure alike; what matters is not to ask one at a time.
const readAhead = 4

// windowRuns is the most cells a disc has hits in, in exact arithmetic: the
// cell side is the radius, so it overlaps at most 3 × 3. It sizes the walk's
// cursor array, which a Query on the stack carries with it; a walk that
// rounding hands more runs than that spills to the heap and stays correct.
const windowRuns = 9

// run is a walk's cursor over one cell: entry i, task id, is the cell's next
// hit still visited, at squared distance d2.
type run struct {
	c  *cell
	i  int
	d2 float64
	id int32
}

// hit is a hit read ahead.
type hit struct {
	d2, acc float64
	task    TaskID
}

// Query starts q as w's walk over the index as it is now.
func (ci *CandidateIndex) Query(q *Query, w Worker) {
	q.ci, q.w = ci, w
	q.pos, q.n, q.spill = 0, 0, q.spill[:0]
	q.next, q.filled = 0, 0
	q.disc2 = ci.radius * ci.radius
	q.within2 = q.disc2
	g := ci.grid
	if g == nil {
		return
	}
	runs := q.buf[:0]
	x, y, disc2 := w.Loc.X, w.Loc.Y, q.disc2
	minCX, maxCX, minCY, maxCY := g.Window(w.Loc, ci.radius)
	for cy := minCY; cy <= maxCY; cy++ {
		rowBase := cy * g.Cols
		for cx := minCX; cx <= maxCX; cx++ {
			// seek's loop, in place: most windows are a few entries a cell,
			// and nine calls would cost more than the entries.
			c := &g.cells[rowBase+cx]
			xs, ys := c.xs, c.ys[:len(c.xs)]
			for i := range xs {
				dx, dy := xs[i]-x, ys[i]-y
				if d2 := dx*dx + dy*dy; d2 <= disc2 {
					q.hits++
					runs = append(runs, run{c: c, i: i, d2: d2, id: c.ids[i]})
					break
				}
			}
		}
	}
	if q.n = len(runs); q.n > windowRuns {
		q.spill = append(q.spill, runs...)
	}
}

// seek moves r to its cell's first entry at or after i that the walk still
// visits and reports whether there is one. Every entry it passes or lands on
// that lies in the disc counts as a hit.
func (q *Query) seek(r *run, i int) bool {
	xs, ys := r.c.xs, r.c.ys[:len(r.c.xs)]
	x, y, disc2, hits := q.w.Loc.X, q.w.Loc.Y, q.disc2, q.hits
	for ; i < len(xs); i++ {
		dx, dy := xs[i]-x, ys[i]-y
		if d2 := dx*dx + dy*dy; d2 <= disc2 {
			hits++
			if d2 <= q.within2 {
				r.i, r.d2, r.id = i, d2, r.c.ids[i]
				q.hits = hits
				return true
			}
		}
	}
	q.hits = hits
	return false
}

// Next advances to the next hit still visited and reports whether there is
// one.
func (q *Query) Next() bool {
	for {
		if q.next == q.filled && !q.fill() {
			return false
		}
		h := &q.ahead[q.next]
		q.next++
		// A hit read before the last Narrow may lie beyond it.
		if h.d2 <= q.within2 {
			q.Task, q.D2, q.Acc = h.task, h.d2, h.acc
			return true
		}
	}
}

// fill reads the next readAhead hits still visited, fewer at the end of the
// walk, with their predictions, and reports whether there was one.
func (q *Query) fill() bool {
	q.next, q.filled = 0, 0
	ci := q.ci
	if ci.grid == nil {
		for ; q.pos < len(ci.live) && q.filled < readAhead; q.pos++ {
			if ci.live[q.pos] {
				q.ahead[q.filled] = hit{task: TaskID(q.pos), acc: ci.in.Model.Predict(q.w, ci.tasks[q.pos])}
				q.filled++
			}
		}
		q.hits += q.filled
	}
	for q.n > 0 && q.filled < readAhead {
		runs := q.spill
		if len(runs) == 0 {
			runs = q.buf[:]
		}
		runs = runs[:q.n]
		best := &runs[0]
		for j := 1; j < len(runs); j++ {
			if r := &runs[j]; r.id < best.id {
				best = r
			}
		}
		// A head placed before the last Narrow may lie beyond it.
		if best.d2 <= q.within2 {
			loc := geo.Point{X: best.c.xs[best.i], Y: best.c.ys[best.i]}
			q.ahead[q.filled] = hit{task: TaskID(best.id), d2: best.d2, acc: ci.spatial.PredictAt(q.w, loc)}
			q.filled++
		}
		if !q.seek(best, best.i+1) {
			q.n--
			*best = runs[q.n]
		}
	}
	q.predicted += q.filled
	return q.filled > 0
}

// Narrow tells the walk that hits at a squared distance above d2 are of no
// more interest: Next passes them over. The walk never widens again.
func (q *Query) Narrow(d2 float64) {
	if d2 < q.within2 {
		q.within2 = d2
	}
}

// Candidate returns the current hit as a candidate and reports whether the
// worker is eligible for the task.
func (q *Query) Candidate() (Candidate, bool) {
	return Candidate{Task: q.Task, Acc: q.Acc, AccStar: AccStar(q.Acc)}, q.Acc >= q.ci.in.MinAcc
}

// Counts reports, over all the query's walks so far, how many hits they
// passed — whether Next returned them or Narrow hid them; a walk's hits are
// all counted once Next has returned false — and how many of them the
// accuracy model was asked about.
func (q *Query) Counts() (hits, predicted int) { return q.hits, q.predicted }

// EligibleWorkerLists returns, for every task (dense ID space, removed tasks
// get empty lists), the ascending arrival indices of all workers eligible
// for it. Offline algorithms (Base-off) use this to reason about future
// supply. Cost: one Candidates call per worker.
func (ci *CandidateIndex) EligibleWorkerLists() [][]int32 {
	lists := make([][]int32, len(ci.tasks))
	var buf []Candidate
	for _, w := range ci.in.Workers {
		buf = ci.Candidates(w, buf[:0])
		for _, c := range buf {
			lists[c.Task] = append(lists[c.Task], int32(w.Index))
		}
	}
	return lists
}

// MaxPossibleCredit returns, for every task (dense ID space, removed tasks
// get 0), the total Acc* credit available from all workers (each
// contributing at most once, ignoring capacity). A task whose total is
// below δ can never complete: used for feasibility checks.
func (ci *CandidateIndex) MaxPossibleCredit() []float64 {
	total := make([]float64, len(ci.tasks))
	var buf []Candidate
	for _, w := range ci.in.Workers {
		buf = ci.Candidates(w, buf[:0])
		for _, c := range buf {
			total[c.Task] += c.AccStar
		}
	}
	return total
}

// CheckFeasible returns ErrInfeasible when some live task cannot reach δ
// even if every eligible worker performs it (capacity ignored — a necessary
// condition only, but it catches the common generator mistakes).
func (ci *CandidateIndex) CheckFeasible() error {
	delta := ci.in.Delta()
	for id, total := range ci.MaxPossibleCredit() {
		if !ci.live[id] {
			continue
		}
		if !Completed(total, delta) {
			return ErrInfeasible
		}
	}
	return nil
}
