package core

import (
	"fmt"
	"math"

	"ltc/internal/flow"
	"ltc/internal/model"
)

// MCFLTC is the paper's offline algorithm (Algorithm 1, §III). It walks the
// worker sequence in batches of m = |T|·⌈δ⌉/K workers (the first batch
// ⌊1.5m⌋), reduces each batch's arrangement to a min-cost max-flow problem
// solved with SSPA, then greedily tops up leftover worker capacity with the
// highest-Acc* uncompleted tasks. Approximation ratio 7.5 under the paper's
// assumptions (Theorem 3).
//
// The zero value runs the published configuration; BatchMultiplier is the
// ablation knob described in README "Design notes".
type MCFLTC struct {
	// BatchMultiplier scales the batch size m (default 1.0 when zero).
	BatchMultiplier float64
}

// Name implements Offline.
func (m *MCFLTC) Name() string { return "MCF-LTC" }

// batchSizes returns the first and subsequent batch sizes (≥ 1 each).
func (m *MCFLTC) batchSizes(in *model.Instance) (first, later int) {
	mult := m.BatchMultiplier
	if mult <= 0 {
		mult = 1
	}
	delta := in.Delta()
	base := float64(len(in.Tasks)) * math.Ceil(delta) / float64(in.K) * mult
	first = int(1.5 * base)
	later = int(base)
	if first < 1 {
		first = 1
	}
	if later < 1 {
		later = 1
	}
	return first, later
}

// Solve implements Offline.
func (m *MCFLTC) Solve(in *model.Instance, ci *model.CandidateIndex) (*model.Arrangement, error) {
	state := newTaskState(len(in.Tasks), in.Delta())
	first, later := m.batchSizes(in)

	pos := 0
	batchNo := 0
	var cands []model.Candidate
	for pos < len(in.Workers) && !state.allDone() {
		size := later
		if batchNo == 0 {
			size = first
		}
		batchNo++
		if pos+size > len(in.Workers) {
			size = len(in.Workers) - pos
		}
		batch := in.Workers[pos : pos+size]
		pos += size
		if err := m.solveBatch(in, ci, state, batch, &cands); err != nil {
			return nil, fmt.Errorf("batch %d: %w", batchNo, err)
		}
	}
	return &state.arr, nil
}

// solveBatch runs lines 4-16 of Algorithm 1 for one batch of workers.
func (m *MCFLTC) solveBatch(
	in *model.Instance,
	ci *model.CandidateIndex,
	state *taskState,
	batch []model.Worker,
	cands *[]model.Candidate,
) error {
	// Active tasks: those still below δ. taskNode maps TaskID -> flow node.
	active := make([]model.TaskID, 0, len(in.Tasks))
	taskNode := make(map[model.TaskID]int, len(in.Tasks))
	for t := range in.Tasks {
		tid := model.TaskID(t)
		if !state.done(tid) {
			taskNode[tid] = 1 + len(batch) + len(active)
			active = append(active, tid)
		}
	}
	if len(active) == 0 {
		return nil
	}

	// Flow network (Fig. 2a): source 0, workers 1..B, tasks B+1..B+A, sink.
	numNodes := 1 + len(batch) + len(active) + 1
	sink := numNodes - 1
	g := flow.NewNetwork(numNodes)
	type pairEdge struct {
		edge    int
		worker  int // arrival index
		task    model.TaskID
		accStar float64
	}
	var pairs []pairEdge
	// Remaining capacity per batch worker (K minus flow assignments).
	used := make([]int, len(batch))
	// assigned[b] lists tasks assigned to batch worker b via the flow, to
	// exclude them during the greedy top-up (line 10).
	assigned := make([][]model.TaskID, len(batch))

	// Min-cost flows on these networks routinely tie (identical Acc*
	// values); an infinitesimal per-worker perturbation breaks ties toward
	// earlier arrivals, which directly serves the latency objective. The
	// magnitude (≤ 1e-7 across the whole batch) is far below any meaningful
	// Acc* difference, so non-tied decisions are unaffected.
	tieEps := 1e-7 / float64(len(batch))
	for b, w := range batch {
		g.AddEdge(0, 1+b, int32(in.K), 0)
		*cands = ci.Candidates(w, (*cands)[:0])
		for _, c := range *cands {
			node, ok := taskNode[c.Task]
			if !ok {
				continue // completed before this batch
			}
			e := g.AddEdge(1+b, node, 1, -c.AccStar+tieEps*float64(b))
			pairs = append(pairs, pairEdge{edge: e, worker: w.Index, task: c.Task, accStar: c.AccStar})
		}
	}
	for _, tid := range active {
		demand := int32(math.Ceil(state.need(tid)))
		if demand < 1 {
			demand = 1
		}
		g.AddEdge(taskNode[tid], sink, demand, 0)
	}

	if _, err := g.MinCostFlow(0, sink); err != nil {
		return err
	}

	// Apply the flow arrangement M'.
	for _, p := range pairs {
		if g.Flow(p.edge) <= 0 {
			continue
		}
		b := batchPos(batch, p.worker)
		used[b]++
		assigned[b] = append(assigned[b], p.task)
		state.add(p.worker, p.task, p.accStar)
	}

	// Greedy top-up (lines 8-15): spend leftover capacity on the most
	// reliable uncompleted tasks the worker has not performed yet, ranked by
	// Acc* in a bestK as large as the capacity left.
	buf := make([]scored, in.K)
	for b, w := range batch {
		capLeft := in.K - used[b]
		if capLeft <= 0 || state.allDone() {
			continue
		}
		*cands = ci.Candidates(w, (*cands)[:0])
		q := bestK{top: buf[:0:capLeft]}
		for _, c := range *cands {
			if state.done(c.Task) || containsTask(assigned[b], c.Task) {
				continue
			}
			q.offer(scored{Candidate: c, score: c.AccStar})
		}
		for _, c := range q.top {
			state.add(w.Index, c.Task, c.AccStar)
		}
	}
	return nil
}

// batchPos converts an arrival index to a position within the batch slice.
func batchPos(batch []model.Worker, arrivalIndex int) int {
	return arrivalIndex - batch[0].Index
}

func containsTask(ts []model.TaskID, t model.TaskID) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}
