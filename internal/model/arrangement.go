package model

import "fmt"

// Assignment records that the worker with the given arrival index performs
// the given task.
type Assignment struct {
	Worker int
	Task   TaskID
}

// Arrangement is a set of assignments M together with the statistics the
// LTC objective needs. Build one incrementally with Add, or from a slice
// with NewArrangement.
type Arrangement struct {
	Pairs []Assignment
	// Accumulated holds the per-task accumulated Acc* credit S[t].
	Accumulated []float64
	// latency caches max worker index over Pairs.
	latency int
}

// NewArrangement returns an empty arrangement for an instance with nTasks
// tasks.
func NewArrangement(nTasks int) *Arrangement {
	return &Arrangement{Accumulated: make([]float64, nTasks)}
}

// EnsureTasks grows the per-task credit table to cover n tasks, so
// arrangements can follow an instance whose task set grows online. Shrinking
// never happens (the dense TaskID space only extends).
func (a *Arrangement) EnsureTasks(n int) {
	for len(a.Accumulated) < n {
		a.Accumulated = append(a.Accumulated, 0)
	}
}

// Add appends the assignment (worker w performs task t with credit accStar).
func (a *Arrangement) Add(worker int, t TaskID, accStar float64) {
	a.Pairs = append(a.Pairs, Assignment{Worker: worker, Task: t})
	a.Accumulated[t] += accStar
	if worker > a.latency {
		a.latency = worker
	}
}

// Latency returns MinMax(M) = max over assignments of the worker arrival
// index — the paper's latency objective. Zero for an empty arrangement.
func (a *Arrangement) Latency() int { return a.latency }

// WorkersUsed returns the number of distinct workers with at least one
// assignment.
func (a *Arrangement) WorkersUsed() int {
	seen := make(map[int]struct{}, len(a.Pairs))
	for _, p := range a.Pairs {
		seen[p.Worker] = struct{}{}
	}
	return len(seen)
}

// Validate checks an arrangement against an instance: every referenced
// worker and task exists, no worker exceeds capacity K, every assignment is
// eligible (Acc ≥ MinAcc), no (worker, task) pair repeats, and — when
// requireComplete — every task accumulates at least δ credit.
//
// It recomputes accumulated credit from scratch, so it also guards against
// drift in incrementally built arrangements.
func (a *Arrangement) Validate(in *Instance, requireComplete bool) error {
	delta := in.Delta()
	load := make(map[int]int, len(a.Pairs))
	type pair struct {
		w int
		t TaskID
	}
	seen := make(map[pair]struct{}, len(a.Pairs))
	acc := make([]float64, len(in.Tasks))
	for _, p := range a.Pairs {
		if p.Worker < 1 || p.Worker > len(in.Workers) {
			return fmt.Errorf("%w: worker %d", ErrBadWorkerRef, p.Worker)
		}
		if p.Task < 0 || int(p.Task) >= len(in.Tasks) {
			return fmt.Errorf("%w: task %d", ErrBadTaskRef, p.Task)
		}
		key := pair{p.Worker, p.Task}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("%w: worker %d task %d", ErrDuplicate, p.Worker, p.Task)
		}
		seen[key] = struct{}{}
		load[p.Worker]++
		if load[p.Worker] > in.K {
			return fmt.Errorf("%w: worker %d assigned %d > K=%d", ErrCapacityUsed, p.Worker, load[p.Worker], in.K)
		}
		w := in.Workers[p.Worker-1]
		t := in.Tasks[p.Task]
		pAcc, ok := in.Eligible(w, t)
		if !ok {
			return fmt.Errorf("%w: worker %d task %d Acc=%v < MinAcc=%v",
				ErrIneligible, p.Worker, p.Task, pAcc, in.MinAcc)
		}
		acc[p.Task] += AccStar(pAcc)
	}
	if requireComplete {
		for tid, s := range acc {
			if !Completed(s, delta) {
				return fmt.Errorf("%w: task %d has %.4f < δ=%.4f", ErrIncomplete, tid, s, delta)
			}
		}
	}
	return nil
}
