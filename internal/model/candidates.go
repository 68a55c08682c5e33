package model

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
// The index supports online task lifecycle: Insert adds a task's grid cells
// and Remove drops them, both incrementally (no full rebuild). Readers and
// writers may run concurrently: the query path is lock-free — Candidates
// loads an immutable snapshot with one atomic read and never blocks, even
// while Insert/Remove (serialized among themselves by a mutex) publish the
// next snapshot. Query scratch space comes from a pool, so the steady-state
// query path stays allocation-free.
type CandidateIndex struct {
	in     *Instance
	radius float64 // +Inf when the model gives no bound

	//ltc:lock index
	mu   sync.Mutex // serializes Insert/Remove
	snap atomic.Pointer[indexSnapshot]
}

// indexSnapshot is one immutable published state of the index: the dense
// task slice (retired tasks keep their slot), the liveness mask, and — when
// the eligibility radius is bounded — the cell grid. Writers share untouched
// cells between consecutive snapshots; only the task's own cell (and, for
// Remove, the liveness mask) is copied.
type indexSnapshot struct {
	tasks []Task //ltc:cow
	live  []bool //ltc:cow
	nLive int
	grid  *cellGrid // nil when the radius is unbounded
}

// cellGrid is the mutable-by-copy counterpart of geo.GridIndex: task ids
// bucketed into uniform cells over the initial bounding rect. Tasks posted
// outside the rect clamp into the border cells (queries clamp the same way,
// and the exact distance check filters, so correctness is unaffected).
type cellGrid struct {
	origin     geo.Point
	cellSize   float64
	cols, rows int
	cells      []cell //ltc:cow
}

// cell is one grid bucket in struct-of-arrays layout: ids[i] is the task at
// (xs[i], ys[i]). Keeping the coordinates beside the ids lets the radius
// filter of within sweep two contiguous float64 arrays instead of gathering
// Task structs through the dense task table — the hot loop of every
// candidate query touches only these slices.
type cell struct {
	ids []int32   //ltc:cow
	xs  []float64 //ltc:cow
	ys  []float64 //ltc:cow
}

// add returns the cell extended with one task, sharing the backing arrays
// with the receiver up to their current lengths (full slice expressions cap
// the shared views, so a concurrent reader of the previous snapshot never
// observes the appends).
func (c cell) add(id int32, p geo.Point) cell {
	n := len(c.ids)
	return cell{
		ids: append(c.ids[:n:n], id),
		xs:  append(c.xs[:n:n], p.X),
		ys:  append(c.ys[:n:n], p.Y),
	}
}

// without returns a fresh cell with task id filtered out. The slices are
// built as locals and only become cell fields on return, so every mutation
// of the //ltc:cow fields stays syntactically copy-on-write.
func (c cell) without(id int32) cell {
	n := len(c.ids) - 1
	ids := make([]int32, 0, n)
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for i, x := range c.ids {
		if x != id {
			ids = append(ids, x)
			xs = append(xs, c.xs[i])
			ys = append(ys, c.ys[i])
		}
	}
	return cell{ids: ids, xs: xs, ys: ys}
}

// idBufPool recycles the grid-query scratch buffers of Candidates. A pool
// (rather than a per-index buffer) keeps query state off the index, so a
// single index can be hammered from many goroutines.
var idBufPool = sync.Pool{New: func() any { return new([]int32) }}

// Lifecycle errors returned by Insert and Remove.
var (
	ErrTaskIDNotDense = errors.New("model: inserted task ID must extend the dense ID space")
	ErrUnknownTask    = errors.New("model: unknown task ID")
)

// NewCandidateIndex builds the candidate index for an instance. The initial
// task set is copied, so later Inserts never alias the instance's slice.
func NewCandidateIndex(in *Instance) *CandidateIndex {
	ci := &CandidateIndex{in: in, radius: math.Inf(1)}
	if rb, ok := in.Model.(RadiusBounder); ok {
		ci.radius = rb.EligibilityRadius(in.MinAcc)
	}
	// Fill the liveness mask before it becomes a snapshot field: snapshot
	// slices are copy-on-write once published, and building them as locals
	// keeps even the pre-publish stores out of the cow fields.
	live := make([]bool, len(in.Tasks))
	for i := range live {
		live[i] = true
	}
	snap := &indexSnapshot{
		tasks: append([]Task(nil), in.Tasks...),
		live:  live,
		nLive: len(in.Tasks),
	}
	if !math.IsInf(ci.radius, 1) {
		cell := ci.radius
		if cell <= 0 {
			cell = 1
		}
		snap.grid = newCellGrid(snap.tasks, cell)
	}
	ci.snap.Store(snap)
	return ci
}

// newCellGrid buckets the tasks into uniform cells of the given size over
// their bounding rect (mirroring geo.NewGridIndex's extent choice).
func newCellGrid(tasks []Task, cellSize float64) *cellGrid {
	g := &cellGrid{cellSize: cellSize, cols: 1, rows: 1}
	if len(tasks) > 0 {
		pts := make([]geo.Point, len(tasks))
		for i, t := range tasks {
			pts[i] = t.Loc
		}
		rect, _ := geo.BoundingRect(pts)
		g.origin = rect.Min
		g.cols = int(math.Floor(rect.Width()/cellSize)) + 1
		g.rows = int(math.Floor(rect.Height()/cellSize)) + 1
	}
	// Bucket into a local table first: cells is a //ltc:cow field, written
	// only by whole-field publication.
	cells := make([]cell, g.cols*g.rows)
	for i, t := range tasks {
		c := g.cellIndex(t.Loc)
		cells[c] = cells[c].add(int32(i), t.Loc)
	}
	g.cells = cells
	return g
}

func (g *cellGrid) cellIndex(p geo.Point) int {
	cx := clampCell(int(math.Floor((p.X-g.origin.X)/g.cellSize)), g.cols)
	cy := clampCell(int(math.Floor((p.Y-g.origin.Y)/g.cellSize)), g.rows)
	return cy*g.cols + cx
}

// withCell returns a copy of the grid whose outer cell table is fresh (so
// the previous snapshot keeps its view) but shares every cell's slices
// except the one at index c, which is replaced by nc.
func (g *cellGrid) withCell(c int, nc cell) *cellGrid {
	cells := make([]cell, len(g.cells))
	copy(cells, g.cells)
	cells[c] = nc
	return &cellGrid{
		origin:   g.origin,
		cellSize: g.cellSize,
		cols:     g.cols,
		rows:     g.rows,
		cells:    cells,
	}
}

// Radius returns the eligibility radius in effect (+Inf when unbounded).
func (ci *CandidateIndex) Radius() float64 { return ci.radius }

// NumTasks returns the size of the dense TaskID space: every id in
// [0, NumTasks) has been inserted at some point (retired ids included).
func (ci *CandidateIndex) NumTasks() int { return len(ci.snap.Load().tasks) }

// NumLive returns how many tasks are currently live (inserted, not removed).
func (ci *CandidateIndex) NumLive() int { return ci.snap.Load().nLive }

// Live reports whether the task id is known and not removed.
func (ci *CandidateIndex) Live(id TaskID) bool {
	s := ci.snap.Load()
	return id >= 0 && int(id) < len(s.live) && s.live[id]
}

// Insert adds a newly posted task to the index. The task's ID must extend
// the dense ID space (ID == NumTasks()) — the index is the ID authority's
// mirror, not an allocator. Safe to call concurrently with Candidates;
// Insert/Remove serialize among themselves.
func (ci *CandidateIndex) Insert(t Task) error {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	s := ci.snap.Load()
	if int(t.ID) != len(s.tasks) {
		return fmt.Errorf("%w: got %d, want %d", ErrTaskIDNotDense, t.ID, len(s.tasks))
	}
	ns := &indexSnapshot{
		// Appending at the dense frontier never rewrites an index a published
		// snapshot can reach, so sharing the backing array with the previous
		// snapshot is safe (writes land strictly beyond its length). The
		// bare appends are waived rather than rewritten: a capped
		// copy-append here would copy the whole table on every insert,
		// trading O(1) amortized growth for O(n) per post.
		tasks: append(s.tasks, t),   //ltclint:ignore cowsnapshot dense-frontier append writes strictly beyond every published snapshot's length
		live:  append(s.live, true), //ltclint:ignore cowsnapshot dense-frontier append writes strictly beyond every published snapshot's length
		nLive: s.nLive + 1,
		grid:  s.grid,
	}
	if s.grid != nil {
		c := s.grid.cellIndex(t.Loc)
		ns.grid = s.grid.withCell(c, s.grid.cells[c].add(int32(t.ID), t.Loc))
	}
	ci.snap.Store(ns)
	return nil
}

// Remove drops a task from the index: its grid cell no longer lists it and
// it stops appearing in Candidates. The id stays allocated (dense space
// never shrinks). Removing an unknown or already-removed id is an error.
func (ci *CandidateIndex) Remove(id TaskID) error {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	s := ci.snap.Load()
	if id < 0 || int(id) >= len(s.tasks) || !s.live[id] {
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	live := append([]bool(nil), s.live...)
	live[id] = false
	ns := &indexSnapshot{tasks: s.tasks, live: live, nLive: s.nLive - 1, grid: s.grid}
	if s.grid != nil {
		c := s.grid.cellIndex(s.tasks[id].Loc)
		ns.grid = s.grid.withCell(c, s.grid.cells[c].without(int32(id)))
	}
	ci.snap.Store(ns)
	return nil
}

// CandidateSource answers per-worker eligibility queries. It is the
// capability the online solvers draw candidates from: the live
// CandidateIndex (every query loads the latest snapshot) or a PinnedQuery
// (a whole run of queries shares one snapshot and one scratch buffer — the
// batched ingestion path).
type CandidateSource interface {
	Candidates(w Worker, dst []Candidate) []Candidate
}

// Candidates appends to dst every live task worker w is eligible for and
// returns the extended slice. Candidates are ordered by ascending TaskID.
// It is safe to call concurrently from multiple goroutines on one shared
// index, including while Insert/Remove run: each query sees one consistent
// snapshot.
func (ci *CandidateIndex) Candidates(w Worker, dst []Candidate) []Candidate {
	return ci.candidatesFrom(ci.snap.Load(), w, dst)
}

// candidatesFrom answers one query against a fixed snapshot. The bulk
// helpers (EligibleWorkerLists, MaxPossibleCredit, CheckFeasible) capture a
// single snapshot for their whole scan, so their task-indexed outputs stay
// in bounds even while Insert/Remove publish new snapshots concurrently.
func (ci *CandidateIndex) candidatesFrom(s *indexSnapshot, w Worker, dst []Candidate) []Candidate {
	if s.grid != nil {
		bufp := idBufPool.Get().(*[]int32)
		dst, *bufp = ci.scanGrid(s, w, dst, *bufp)
		idBufPool.Put(bufp)
		return dst
	}
	return ci.scanAll(s, w, dst)
}

// scanGrid collects the eligible candidates among the snapshot's grid hits,
// using (and returning) the caller's id scratch buffer. Grid results are
// grouped by cell; sorting by id keeps the output deterministic.
func (ci *CandidateIndex) scanGrid(s *indexSnapshot, w Worker, dst []Candidate, scratch []int32) ([]Candidate, []int32) {
	ids := s.grid.within(w.Loc, ci.radius, scratch[:0])
	sortInt32(ids)
	for _, id := range ids {
		t := s.tasks[id]
		if acc, ok := ci.in.Eligible(w, t); ok {
			dst = append(dst, Candidate{Task: t.ID, Acc: acc, AccStar: AccStar(acc)})
		}
	}
	return dst, ids
}

// scanAll is the unbounded-radius fallback: every live task is checked.
func (ci *CandidateIndex) scanAll(s *indexSnapshot, w Worker, dst []Candidate) []Candidate {
	for id, t := range s.tasks {
		if !s.live[id] {
			continue
		}
		if acc, ok := ci.in.Eligible(w, t); ok {
			dst = append(dst, Candidate{Task: t.ID, Acc: acc, AccStar: AccStar(acc)})
		}
	}
	return dst
}

// PinnedQuery answers Candidates against one pinned snapshot of its index,
// with a private scratch buffer: a run of queries pays a single atomic
// snapshot load (at Pin) and zero pool round-trips — the amortization the
// batched ingestion path is built on. Between Pin and Unpin the view is
// frozen: tasks inserted or removed on the index after the Pin are not
// seen. Unlike the index itself a PinnedQuery is NOT safe for concurrent
// use; callers serialize it with their own lock (the dispatch layer holds
// the owning shard's mutex for the whole run).
type PinnedQuery struct {
	ci   *CandidateIndex
	s    *indexSnapshot
	sbuf []int32
}

// NewPinnedQuery returns an unpinned query bound to the index. While
// unpinned, Candidates falls back to the index's live snapshot (still
// skipping the pool round-trip).
func (ci *CandidateIndex) NewPinnedQuery() *PinnedQuery {
	return &PinnedQuery{ci: ci}
}

// Pin captures the index's current snapshot for the queries that follow.
// Re-pinning refreshes the view.
func (p *PinnedQuery) Pin() { p.s = p.ci.snap.Load() }

// Unpin releases the pinned snapshot (so superseded snapshots can be
// collected between runs); queries fall back to the live view.
func (p *PinnedQuery) Unpin() { p.s = nil }

// Pinned reports whether a snapshot is currently pinned.
func (p *PinnedQuery) Pinned() bool { return p.s != nil }

// Candidates mirrors CandidateIndex.Candidates against the pinned snapshot
// (or the live one while unpinned), implementing CandidateSource.
func (p *PinnedQuery) Candidates(w Worker, dst []Candidate) []Candidate {
	s := p.s
	if s == nil {
		s = p.ci.snap.Load()
	}
	if s.grid != nil {
		dst, p.sbuf = p.ci.scanGrid(s, w, dst, p.sbuf)
		return dst
	}
	return p.ci.scanAll(s, w, dst)
}

// within appends the ids of all indexed tasks at Euclidean distance ≤ radius
// from q (mirroring geo.GridIndex.Within's cell walk). The filter reads each
// cell's xs/ys arrays directly — one contiguous sweep per cell, no gather
// through the task table.
func (g *cellGrid) within(q geo.Point, radius float64, dst []int32) []int32 {
	r2 := radius * radius
	// Clamp every bound into the cell range (not just toward it): tasks
	// posted outside the initial rect live clamped in the border cells, so a
	// query beyond the border must still scan its nearest border cells — the
	// exact distance check filters false positives.
	minCX := clampCell(int(math.Floor((q.X-radius-g.origin.X)/g.cellSize)), g.cols)
	maxCX := clampCell(int(math.Floor((q.X+radius-g.origin.X)/g.cellSize)), g.cols)
	minCY := clampCell(int(math.Floor((q.Y-radius-g.origin.Y)/g.cellSize)), g.rows)
	maxCY := clampCell(int(math.Floor((q.Y+radius-g.origin.Y)/g.cellSize)), g.rows)
	for cy := minCY; cy <= maxCY; cy++ {
		rowBase := cy * g.cols
		for cx := minCX; cx <= maxCX; cx++ {
			c := &g.cells[rowBase+cx]
			for i, id := range c.ids {
				dx, dy := c.xs[i]-q.X, c.ys[i]-q.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// clampCell clamps a cell coordinate into [0, n).
func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// EligibleWorkerLists returns, for every task (dense ID space, removed tasks
// get empty lists), the ascending arrival indices of all workers eligible
// for it. Offline algorithms (Base-off) use this to reason about future
// supply. Cost: one Candidates call per worker. The whole scan sees one
// snapshot of the task set.
func (ci *CandidateIndex) EligibleWorkerLists() [][]int32 {
	s := ci.snap.Load()
	lists := make([][]int32, len(s.tasks))
	var buf []Candidate
	for _, w := range ci.in.Workers {
		buf = ci.candidatesFrom(s, w, buf[:0])
		for _, c := range buf {
			lists[c.Task] = append(lists[c.Task], int32(w.Index))
		}
	}
	return lists
}

// MaxPossibleCredit returns, for every task (dense ID space, removed tasks
// get 0), the total Acc* credit available from all workers (each
// contributing at most once, ignoring capacity). A task whose total is
// below δ can never complete: used for feasibility checks. The whole scan
// sees one snapshot of the task set.
func (ci *CandidateIndex) MaxPossibleCredit() []float64 {
	return ci.maxPossibleCreditFrom(ci.snap.Load())
}

func (ci *CandidateIndex) maxPossibleCreditFrom(s *indexSnapshot) []float64 {
	total := make([]float64, len(s.tasks))
	var buf []Candidate
	for _, w := range ci.in.Workers {
		buf = ci.candidatesFrom(s, w, buf[:0])
		for _, c := range buf {
			total[c.Task] += c.AccStar
		}
	}
	return total
}

// CheckFeasible returns ErrInfeasible when some live task cannot reach δ
// even if every eligible worker performs it (capacity ignored — a necessary
// condition only, but it catches the common generator mistakes). The check
// sees one snapshot of the task set.
func (ci *CandidateIndex) CheckFeasible() error {
	s := ci.snap.Load()
	delta := ci.in.Delta()
	for id, total := range ci.maxPossibleCreditFrom(s) {
		if !s.live[id] {
			continue
		}
		if !Completed(total, delta) {
			return ErrInfeasible
		}
	}
	return nil
}

// sortInt32 sorts a small slice of int32 in place. Insertion sort for short
// slices (grid query results are typically tens of ids), falling back to a
// simple quicksort.
func sortInt32(s []int32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	pivot := s[len(s)/2]
	lo, hi := 0, len(s)-1
	for lo <= hi {
		for s[lo] < pivot {
			lo++
		}
		for s[hi] > pivot {
			hi--
		}
		if lo <= hi {
			s[lo], s[hi] = s[hi], s[lo]
			lo++
			hi--
		}
	}
	sortInt32(s[:hi+1])
	sortInt32(s[lo:])
}
