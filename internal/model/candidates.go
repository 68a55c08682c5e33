package model

import (
	"cmp"
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
// There are two ways to ask. Candidates returns every task the worker is
// eligible for, in ascending TaskID, which takes asking the accuracy model
// about every hit — every live task in the worker's eligibility disc. A
// Query walks the hits, nearest cell first, and can be told to Narrow and to
// Floor: an online solver that keeps the best K of a worker's candidates
// narrows the walk as hits lose and floors it at the need the K-th best
// score leaves (see core's scan), and on a hot cell that leaves most of the
// disc unvisited and unasked about.
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

// cell is one grid bucket: ids[i] is the task at pts[i], in strictly
// ascending id — task ids only grow, so add appends, and remove finds the
// entry by binary search and closes the gap. Keeping the coordinates beside
// the ids lets the radius filter sweep one contiguous array, and the spatial
// model read a hit's location, without gathering Task structs through the
// dense task table — the hot loop of every candidate query touches only
// these slices. Every index allocates one cell per grid square, most of them
// empty, so the cell is kept small: one points array, not one per
// coordinate, leaves room for the box.
//
// lo and hi are the corners of a box around every entry the cell has held
// since it was last empty: add widens it and remove leaves it, so it bounds
// the live entries, tasks clamped in from outside the grid's rect included,
// at their own coordinates. A narrowed walk drops a cell whose box lies
// beyond it.
type cell struct {
	ids    []int32
	pts    []geo.Point
	lo, hi geo.Point
}

func (c *cell) add(id int32, p geo.Point) {
	if len(c.ids) == 0 {
		c.lo, c.hi = p, p
	}
	c.ids = append(c.ids, id)
	c.pts = append(c.pts, p)
	c.lo = geo.Point{X: min(c.lo.X, p.X), Y: min(c.lo.Y, p.Y)}
	c.hi = geo.Point{X: max(c.hi.X, p.X), Y: max(c.hi.Y, p.Y)}
}

// remove deletes task id, found by binary search, keeping the order. A live
// task is listed in its cell (Remove checks liveness first).
func (c *cell) remove(id int32) {
	i, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Delete(c.ids, i, i+1)
	c.pts = slices.Delete(c.pts, i, i+1)
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
		c.ids, c.pts = append(c.ids, src.ids...), append(c.pts, src.pts...)
		c.lo, c.hi = src.lo, src.hi
	}
	return cp
}

// carve gives the grid one empty cell per entry of size, cutting cell i's
// arrays from two shared blocks with capacity size[i]: filling a cell to
// its size never reallocates, and an append beyond it reallocates that cell
// alone. A cell of size 0 keeps nil arrays.
func (g *cellGrid) carve(size []int) {
	total := 0
	for _, k := range size {
		total += k
	}
	ids, pts := make([]int32, total), make([]geo.Point, total)
	g.cells = make([]cell, len(size))
	lo := 0
	for i, k := range size {
		if k > 0 {
			hi := lo + k
			g.cells[i] = cell{ids: ids[lo:lo:hi], pts: pts[lo:lo:hi]}
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
// returns the extended slice, the appended candidates in ascending TaskID
// whatever order the walk took. A query reads the index and writes only dst, so concurrent queries on one
// shared index are safe as long as no Insert or Remove runs beside them.
func (ci *CandidateIndex) Candidates(w Worker, dst []Candidate) []Candidate {
	n := len(dst)
	var q Query
	for ci.Query(&q, w); q.Next(); {
		if c, ok := q.Candidate(); ok {
			dst = append(dst, c)
		}
	}
	slices.SortFunc(dst[n:], func(a, b Candidate) int { return cmp.Compare(a.Task, b.Task) })
	return dst
}

// Query is one worker's walk over its hits — the live tasks within the
// eligibility radius, every live task when there is no radius — each once,
// with the accuracy model's prediction. The walk reads the index and writes
// only the Query, so it follows Candidates' concurrency rule, and a Query is
// reusable: CandidateIndex.Query restarts it, keeping nothing of the last
// walk but Counts.
//
// The order is the grid's, and no caller may rely on it: without a grid the
// walk runs in ascending TaskID; on the grid it visits the window's cells
// nearest first — by the squared distance of each cell's first hit — and
// each cell in its own ascending id, so the near hits come early and the
// walk reads one cell at a time. The radius filter reads each cell's points
// directly, and the spatial model is asked about a hit at the cell's own
// coordinates.
//
// The model is asked about readAhead hits at a time, before the caller sees
// the first of them: a prediction is a long chain of dependent floating-point
// steps, what the caller does with it branches on the result, and asked one
// at a time each prediction would wait for the last one's branches. A Narrow
// therefore comes too late for the (at most readAhead − 1) predictions
// already made beyond it; Next passes those hits over all the same.
//
// Two rules let the walk leave hits unread. Once narrowed, it drops a cell
// whose box (see cell) lies beyond the Narrow: the box's squared distance is
// computed as an entry's is, and rounding is monotone, so it never exceeds
// any entry's. And a Floor passes over, before its prediction, a hit whose
// task needs less than the Floor's bar.
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
	// The grid walk's cursors, one per cell with a hit, nearest first: the
	// first n of buf, or of spill in a walk that started with more than buf
	// holds. cur is the cell being walked; those before it are done.
	buf    [windowRuns]run
	spill  []run
	n, cur int
	pos    int // no grid: the next id to look at
	// ahead[next:filled] are the hits read ahead and not yet returned.
	ahead        [readAhead]hit
	next, filled int
	// The Floor: credit and delta give a task's need, bar the need below
	// which a hit is passed over; credit is nil until a Floor.
	credit     []float64
	delta, bar float64
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

// run is a walk's cursor over one cell: entry i is the cell's next hit still
// visited, at squared distance d2. box2 is the squared distance of the
// cell's box, −1 until a narrowed walk first needs it.
type run struct {
	c        *cell
	i        int
	d2, box2 float64
}

// hit is a hit read ahead.
type hit struct {
	d2, acc float64
	task    TaskID
}

// Query starts q as w's walk over the index as it is now.
func (ci *CandidateIndex) Query(q *Query, w Worker) {
	q.ci, q.w = ci, w
	q.pos, q.n, q.cur, q.spill = 0, 0, 0, q.spill[:0]
	q.next, q.filled, q.credit = 0, 0, nil
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
			for i, p := range c.pts {
				dx, dy := p.X-x, p.Y-y
				if d2 := dx*dx + dy*dy; d2 <= disc2 {
					q.hits++
					runs = append(runs, run{c: c, i: i, d2: d2, box2: -1})
					break
				}
			}
		}
	}
	// Nearest first hit first, by insertion sort: a window holds ≤ 9 runs
	// but for rounding.
	for j := 1; j < len(runs); j++ {
		for k := j; k > 0 && runs[k].d2 < runs[k-1].d2; k-- {
			runs[k], runs[k-1] = runs[k-1], runs[k]
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
	pts := r.c.pts
	x, y, disc2, hits := q.w.Loc.X, q.w.Loc.Y, q.disc2, q.hits
	for ; i < len(pts); i++ {
		dx, dy := pts[i].X-x, pts[i].Y-y
		if d2 := dx*dx + dy*dy; d2 <= disc2 {
			hits++
			if d2 <= q.within2 {
				r.i, r.d2 = i, d2
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
			if !ci.live[q.pos] {
				continue
			}
			q.hits++
			if !q.floored(q.pos) {
				q.ahead[q.filled] = hit{task: TaskID(q.pos), acc: ci.in.Model.Predict(q.w, ci.tasks[q.pos])}
				q.filled++
			}
		}
	}
	runs := q.spill
	if len(runs) == 0 {
		runs = q.buf[:]
	}
	for q.cur < q.n && q.filled < readAhead {
		r := &runs[q.cur]
		// A cell's first hit, placed before the last Narrow, may lie beyond it.
		if id := r.c.ids[r.i]; r.d2 <= q.within2 && !q.floored(int(id)) {
			q.ahead[q.filled] = hit{task: TaskID(id), d2: r.d2, acc: ci.spatial.PredictAt(q.w, r.c.pts[r.i])}
			q.filled++
		}
		if q.within2 < q.disc2 && q.beyond(r) || !q.seek(r, r.i+1) {
			q.cur++
		}
	}
	q.predicted += q.filled
	return q.filled > 0
}

// beyond reports whether every entry r's cell has held lies farther than
// the walk still visits: the box's squared distance, computed the way seek
// computes an entry's, exceeds within2.
func (q *Query) beyond(r *run) bool {
	if r.box2 < 0 {
		c, x, y := r.c, q.w.Loc.X, q.w.Loc.Y
		dx, dy := max(c.lo.X-x, 0, x-c.hi.X), max(c.lo.Y-y, 0, y-c.hi.Y)
		r.box2 = dx*dx + dy*dy
	}
	return r.box2 > q.within2
}

// floored reports whether task id needs less than the Floor's bar, its need
// computed as core's ledger computes it: max(0, delta − credit[id]).
func (q *Query) floored(id int) bool {
	if id >= len(q.credit) {
		return false
	}
	need := q.delta - q.credit[id]
	if need < 0 {
		need = 0
	}
	return need < q.bar
}

// Narrow tells the walk that hits at a squared distance above d2 are of no
// more interest: Next passes them over. The walk never widens again.
func (q *Query) Narrow(d2 float64) {
	if d2 < q.within2 {
		q.within2 = d2
	}
}

// Floor tells the walk that a task whose need, max(0, delta − credit[t]), is
// below bar is of no more interest: the walk passes over its hits without
// asking the model about them. credit is read, never written, and a task
// beyond it is not passed over. A new walk starts with no Floor.
func (q *Query) Floor(credit []float64, delta, bar float64) {
	q.credit, q.delta, q.bar = credit, delta, bar
}

// Candidate returns the current hit as a candidate and reports whether the
// worker is eligible for the task.
func (q *Query) Candidate() (Candidate, bool) {
	return Candidate{Task: q.Task, Acc: q.Acc, AccStar: AccStar(q.Acc)}, q.Acc >= q.ci.in.MinAcc
}

// Counts reports, over all the query's walks so far, how many hits they
// examined — whether Next returned them, or Narrow or the Floor hid them —
// and how many of them the accuracy model was asked about. A walk that was
// never narrowed examines every hit by the time Next returns false; a
// narrowed one leaves unexamined the hits in the cells it dropped.
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
