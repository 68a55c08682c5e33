package model

import (
	"errors"
	"fmt"
	"math"

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
	nLive int
	grid  *cellGrid // nil when the radius is unbounded
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
// (xs[i], ys[i]), in no particular order. Keeping the coordinates beside the
// ids lets the radius filter of within sweep two contiguous float64 arrays
// instead of gathering Task structs through the dense task table — the hot
// loop of every candidate query touches only these slices.
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

// remove swap-deletes task id: the last entry takes its place. Cell order is
// free because queries sort their hits by id.
func (c *cell) remove(id int32) {
	last := len(c.ids) - 1
	for i, x := range c.ids {
		if x == id {
			c.ids[i], c.xs[i], c.ys[i] = c.ids[last], c.xs[last], c.ys[last]
			c.ids, c.xs, c.ys = c.ids[:last], c.xs[:last], c.ys[:last]
			return
		}
	}
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
		nLive:  len(in.Tasks),
	}
	for i := range ci.live {
		ci.live[i] = true
	}
	if rb, ok := in.Model.(RadiusBounder); ok {
		ci.radius = rb.EligibilityRadius(in.MinAcc)
	}
	if !math.IsInf(ci.radius, 1) {
		side := ci.radius
		if side <= 0 {
			side = 1
		}
		ci.grid = newCellGrid(ci.tasks, side)
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

// clone copies the grid. The cells' arrays are carved from three shared
// blocks, each cell's capacity clipped to its length so that an append
// reallocates that cell alone.
func (g *cellGrid) clone() *cellGrid {
	n := 0
	for i := range g.cells {
		n += len(g.cells[i].ids)
	}
	ids, xs, ys := make([]int32, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	cp := &cellGrid{TileGrid: g.TileGrid, cells: make([]cell, len(g.cells))}
	for i := range g.cells {
		c, lo := &g.cells[i], len(ids)
		ids, xs, ys = append(ids, c.ids...), append(xs, c.xs...), append(ys, c.ys...)
		hi := len(ids)
		cp.cells[i] = cell{ids: ids[lo:hi:hi], xs: xs[lo:hi:hi], ys: ys[lo:hi:hi]}
	}
	return cp
}

// newCellGrid buckets the tasks into square cells of the given side over
// their bounding rect.
func newCellGrid(tasks []Task, side float64) *cellGrid {
	pts := make([]geo.Point, len(tasks))
	for i, t := range tasks {
		pts[i] = t.Loc
	}
	rect, _ := geo.BoundingRect(pts)
	g := &cellGrid{TileGrid: geo.SquareTileGrid(rect, side)}
	g.cells = make([]cell, g.NumTiles())
	for i, p := range pts {
		g.cells[g.Index(p)].add(int32(i), p)
	}
	return g
}

// Radius returns the eligibility radius in effect (+Inf when unbounded).
func (ci *CandidateIndex) Radius() float64 { return ci.radius }

// NumTasks returns the size of the dense TaskID space: every id in
// [0, NumTasks) has been inserted at some point (retired ids included).
func (ci *CandidateIndex) NumTasks() int { return len(ci.tasks) }

// NumLive returns how many tasks are currently live (inserted, not removed).
// Under an engine that is the number of open tasks: a task is removed when
// it completes, is retired or migrates away.
func (ci *CandidateIndex) NumLive() int { return ci.nLive }

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
	ci.nLive++
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
	ci.nLive--
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
	if ci.grid == nil {
		// Unbounded radius: every live task is checked.
		for id, t := range ci.tasks {
			if !ci.live[id] {
				continue
			}
			if acc, ok := ci.in.Eligible(w, t); ok {
				dst = append(dst, Candidate{Task: t.ID, Acc: acc, AccStar: AccStar(acc)})
			}
		}
		return dst
	}
	// The grid hits land in dst's own tail as bare task ids — no scratch
	// buffer to own or pool — grouped by cell; sorting by id makes the
	// output deterministic. The tail is then rewritten in place: each
	// eligible hit is filled in at or before its own slot, the rest are
	// compacted away.
	n := len(dst)
	dst = ci.grid.within(w.Loc, ci.radius, dst)
	hits := dst[n:]
	sortByTask(hits)
	for _, c := range hits {
		t := ci.tasks[c.Task]
		if acc, ok := ci.in.Eligible(w, t); ok {
			dst[n] = Candidate{Task: t.ID, Acc: acc, AccStar: AccStar(acc)}
			n++
		}
	}
	return dst[:n]
}

// within appends a bare Candidate{Task: id} for every indexed task at
// Euclidean distance ≤ radius from q. The filter reads each cell's xs/ys
// arrays directly — one contiguous sweep per cell, no gather through the
// task table.
func (g *cellGrid) within(q geo.Point, radius float64, dst []Candidate) []Candidate {
	r2 := radius * radius
	minCX, maxCX, minCY, maxCY := g.Window(q, radius)
	for cy := minCY; cy <= maxCY; cy++ {
		rowBase := cy * g.Cols
		for cx := minCX; cx <= maxCX; cx++ {
			c := &g.cells[rowBase+cx]
			for i, id := range c.ids {
				dx, dy := c.xs[i]-q.X, c.ys[i]-q.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, Candidate{Task: TaskID(id)})
				}
			}
		}
	}
	return dst
}

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

// sortByTask sorts a small slice of candidates by ascending TaskID in place.
// Insertion sort for short slices (grid query results are typically tens of
// hits), falling back to a simple quicksort.
func sortByTask(s []Candidate) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j].Task < s[j-1].Task; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	pivot := s[len(s)/2].Task
	lo, hi := 0, len(s)-1
	for lo <= hi {
		for s[lo].Task < pivot {
			lo++
		}
		for s[hi].Task > pivot {
			hi--
		}
		if lo <= hi {
			s[lo], s[hi] = s[hi], s[lo]
			lo++
			hi--
		}
	}
	sortByTask(s[:hi+1])
	sortByTask(s[lo:])
}
