package core

import (
	"errors"
	"sort"

	"ltc/internal/model"
)

// ErrSearchBudget is returned by Exact when the branch-and-bound search
// exceeds its node budget. The offline LTC problem is NP-hard (Theorem 1),
// so Exact is only meant for toy instances and ratio experiments.
var ErrSearchBudget = errors.New("ltc: exact search budget exhausted")

// Exact solves the offline LTC problem optimally by branch and bound over
// the worker sequence: each worker either performs a subset (≤ K) of its
// eligible uncompleted tasks or is skipped. The bound combines the best
// latency found so far with an optimistic workers-needed estimate from the
// remaining total credit demand.
type Exact struct {
	// MaxNodes bounds the number of explored search nodes
	// (default 5,000,000 when zero).
	MaxNodes int64
}

// Name implements Offline.
func (e *Exact) Name() string { return "Exact" }

// Solve implements Offline. It returns ErrSearchBudget if the instance is
// too large to finish within the node budget.
func (e *Exact) Solve(in *model.Instance, ci *model.CandidateIndex) (*model.Arrangement, error) {
	budget := e.MaxNodes
	if budget <= 0 {
		budget = 5_000_000
	}
	s := &exactSearch{
		in:     in,
		delta:  in.Delta(),
		state:  make([]float64, len(in.Tasks)),
		budget: budget,
		best:   len(in.Workers) + 1,
	}
	// Precompute candidate lists and the global max credit for the bound.
	s.cands = make([][]model.Candidate, len(in.Workers))
	var buf []model.Candidate
	for i, w := range in.Workers {
		buf = ci.Candidates(w, buf[:0])
		s.cands[i] = append([]model.Candidate(nil), buf...)
		// Strongest candidates first: finds good incumbents early, which
		// tightens the bound for the rest of the search.
		sort.Slice(s.cands[i], func(a, b int) bool {
			if s.cands[i][a].AccStar != s.cands[i][b].AccStar {
				return s.cands[i][a].AccStar > s.cands[i][b].AccStar
			}
			return s.cands[i][a].Task < s.cands[i][b].Task
		})
		for _, c := range s.cands[i] {
			if c.AccStar > s.maxCredit {
				s.maxCredit = c.AccStar
			}
		}
	}
	if s.maxCredit <= 0 {
		return nil, model.ErrInfeasible
	}
	var need float64
	for range in.Tasks {
		need += s.delta
	}
	s.remainingNeed = need

	// Seed the incumbent with a fast heuristic (LAF): branch and bound then
	// only explores branches that strictly improve on it, pruning the bulk
	// of the tree on easy instances.
	laf := NewLAF(in, ci)
	for _, w := range in.Workers {
		if laf.Done() {
			break
		}
		laf.Arrive(w)
	}
	if laf.Done() {
		s.bestPairs = laf.state.arr.Pairs
		s.best = laf.state.arr.Latency()
	}

	s.dfs(0, 0)
	if s.budget < 0 {
		return nil, ErrSearchBudget
	}
	if s.bestPairs == nil {
		return nil, model.ErrInfeasible
	}
	arr := model.NewArrangement(len(in.Tasks))
	for _, p := range s.bestPairs {
		arr.Add(p.Worker, p.Task, model.AccStar(in.Model.Predict(in.Workers[p.Worker-1], in.Tasks[p.Task])))
	}
	return arr, nil
}

type exactSearch struct {
	in            *model.Instance
	delta         float64
	state         []float64
	remainingNeed float64 // Σ_t max(0, δ − S[t])
	cands         [][]model.Candidate
	maxCredit     float64
	budget        int64

	current   []model.Assignment
	best      int
	bestPairs []model.Assignment
}

// dfs explores worker wi (0-based); lastUsed is the highest arrival index
// assigned so far.
func (s *exactSearch) dfs(wi, lastUsed int) {
	if s.budget < 0 {
		return
	}
	s.budget--
	if s.allDone() {
		if lastUsed < s.best {
			s.best = lastUsed
			s.bestPairs = append(s.bestPairs[:0], s.current...)
		}
		return
	}
	if wi >= len(s.in.Workers) {
		return
	}
	// Optimistic bound: each remaining worker contributes at most
	// K·maxCredit; the first contribution arrives at index wi+1.
	needWorkers := int(s.remainingNeed / (float64(s.in.K) * s.maxCredit))
	if float64(needWorkers)*float64(s.in.K)*s.maxCredit < s.remainingNeed-model.CompletionEps {
		needWorkers++
	}
	if wi+needWorkers >= s.best {
		return // even the optimistic completion is no better than best
	}
	s.chooseSubset(wi, 0, 0, lastUsed)
}

// chooseSubset enumerates subsets of worker wi's open candidates (size ≤ K)
// in decreasing-credit order: ci is the candidate cursor, chosen counts
// assignments made to wi on this path.
func (s *exactSearch) chooseSubset(wi, ci, chosen, lastUsed int) {
	if s.budget < 0 {
		return
	}
	// Assignment branches first (strongest candidates first): descending
	// the greedy path early yields tight incumbents for pruning. The "stop
	// assigning to this worker" branch follows.
	if chosen < s.in.K {
		s.assignBranches(wi, ci, chosen, lastUsed)
	}
	// Domination prune: once a worker is used, its latency cost is sunk and
	// extra credit is free, so stopping with spare capacity while an open
	// candidate remains is weakly dominated by assigning one more task.
	if chosen > 0 && chosen < s.in.K && s.hasOpenUnchosen(wi, chosen) {
		return
	}
	next := lastUsed
	if chosen > 0 {
		next = s.in.Workers[wi].Index
	}
	s.dfs(wi+1, next)
}

// hasOpenUnchosen reports whether worker wi has any eligible task that is
// still below δ and not among the worker's `chosen` assignments on the
// current path (the trailing entries of s.current).
func (s *exactSearch) hasOpenUnchosen(wi, chosen int) bool {
	tail := s.current[len(s.current)-chosen:]
	for _, c := range s.cands[wi] {
		if model.Completed(s.state[c.Task], s.delta) {
			continue
		}
		taken := false
		for _, p := range tail {
			if p.Task == c.Task {
				taken = true
				break
			}
		}
		if !taken {
			return true
		}
	}
	return false
}

// assignBranches tries each remaining open candidate of worker wi in turn.
func (s *exactSearch) assignBranches(wi, ci, chosen, lastUsed int) {
	for i := ci; i < len(s.cands[wi]); i++ {
		c := s.cands[wi][i]
		if model.Completed(s.state[c.Task], s.delta) {
			continue
		}
		before := s.state[c.Task]
		gain := c.AccStar
		needBefore := s.delta - before
		if needBefore < 0 {
			needBefore = 0
		}
		consumed := gain
		if consumed > needBefore {
			consumed = needBefore
		}
		s.state[c.Task] = before + gain
		s.remainingNeed -= consumed
		s.current = append(s.current, model.Assignment{Worker: s.in.Workers[wi].Index, Task: c.Task})

		s.chooseSubset(wi, i+1, chosen+1, lastUsed)

		s.current = s.current[:len(s.current)-1]
		s.remainingNeed += consumed
		s.state[c.Task] = before
	}
}

func (s *exactSearch) allDone() bool {
	return s.remainingNeed <= model.CompletionEps
}
