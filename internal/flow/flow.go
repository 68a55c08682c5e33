// Package flow implements the minimum-cost-flow substrate of the MCF-LTC
// algorithm (paper §III). The paper reduces each batch's task-worker
// arrangement to a min-cost max-flow instance and solves it with the
// Successive Shortest Path Algorithm (SSPA), chosen because it handles
// "large-scale data and many-to-many matching with real-valued arc costs"
// (citing Yiu et al., SIGMOD 2008).
//
// SSPA here runs Dijkstra with Johnson potentials: one initial Bellman–Ford
// pass absorbs the negative -Acc* arc costs into node potentials, and every
// augmentation then runs Dijkstra on non-negative reduced costs. Each
// augmentation sends the bottleneck capacity of the shortest path.
package flow

import (
	"errors"
	"fmt"
	"math"

	"ltc/internal/pqueue"
)

// Network is a directed flow network with int32 capacities and float64
// costs. Nodes are dense ids 0..N-1. Every AddEdge also creates the reverse
// residual edge; the pair shares ids (e, e^1).
type Network struct {
	numNodes int
	adj      [][]int32 // node -> edge ids (forward and residual)
	to       []int32   // edge -> head node
	capa     []int32   // edge -> residual capacity
	cost     []float64 // edge -> cost (reverse edge has negated cost)
	initCap  []int32   // original capacity of forward edges (reverse: 0)
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n <= 0 {
		panic("flow: network needs at least one node")
	}
	return &Network{
		numNodes: n,
		adj:      make([][]int32, n),
	}
}

// AddEdge adds a directed edge from → to with the given capacity and cost,
// returning its edge id. Capacity must be non-negative.
func (g *Network) AddEdge(from, to int, capacity int32, cost float64) int {
	if from < 0 || from >= g.numNodes || to < 0 || to >= g.numNodes {
		panic(fmt.Sprintf("flow: edge endpoints (%d,%d) out of range [0,%d)", from, to, g.numNodes))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := int32(len(g.to))
	g.to = append(g.to, int32(to), int32(from))
	g.capa = append(g.capa, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.initCap = append(g.initCap, capacity, 0)
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return int(id)
}

// Flow returns the amount of flow currently routed through forward edge e
// (as returned by AddEdge).
func (g *Network) Flow(e int) int32 {
	return g.initCap[e] - g.capa[e]
}

// Result reports the outcome of a min-cost-flow computation.
type Result struct {
	Flow int32
	Cost float64
}

// ErrNegativeCycle is returned when the residual network contains a
// negative-cost cycle reachable from the source (SSPA's invariants do not
// hold then). The LTC networks are bipartite DAGs and can never trigger it.
var ErrNegativeCycle = errors.New("flow: negative-cost cycle detected")

// MinCostFlow routes the maximum feasible flow from s to t at minimum total
// cost using SSPA.
func (g *Network) MinCostFlow(s, t int) (Result, error) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes {
		panic("flow: source/sink out of range")
	}
	if s == t {
		return Result{}, nil
	}
	pot := make([]float64, g.numNodes)
	if g.hasNegativeCost() {
		var err error
		pot, err = g.bellmanFord(s)
		if err != nil {
			return Result{}, err
		}
	}
	dist := make([]float64, g.numNodes)
	prevEdge := make([]int32, g.numNodes)
	heap := pqueue.NewIndexedMinHeap(g.numNodes)

	var res Result
	for {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		heap.Reset()
		dist[s] = 0
		heap.PushOrDecrease(s, 0)
		for heap.Len() > 0 {
			// The heap lowers a queued node's key in place, so a node is
			// popped once, at its final dist: no stale entry to skip.
			u, _ := heap.PopMin()
			for _, e := range g.adj[u] {
				if g.capa[e] <= 0 {
					continue
				}
				v := g.to[e]
				rc := g.cost[e] + pot[u] - pot[v]
				if rc < 0 {
					// Numerical slack: potentials keep reduced costs ≥ 0 up
					// to floating-point error; clamp tiny negatives.
					if rc < -1e-7 {
						return res, fmt.Errorf("flow: reduced cost %g negative beyond tolerance", rc)
					}
					rc = 0
				}
				if nd := dist[u] + rc; nd < dist[int(v)] {
					dist[v] = nd
					prevEdge[v] = e
					heap.PushOrDecrease(int(v), nd)
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break // no augmenting path remains
		}
		// Update potentials for reachable nodes.
		for v := range pot {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		g.augment(s, t, prevEdge, &res)
	}
	return res, nil
}

// augment pushes the path's bottleneck along the path encoded in prevEdge
// and adds it to res.
func (g *Network) augment(s, t int, prevEdge []int32, res *Result) {
	bottleneck := int32(math.MaxInt32)
	for v := t; v != s; {
		e := prevEdge[v]
		if g.capa[e] < bottleneck {
			bottleneck = g.capa[e]
		}
		v = int(g.to[e^1])
	}
	for v := t; v != s; {
		e := prevEdge[v]
		g.capa[e] -= bottleneck
		g.capa[e^1] += bottleneck
		res.Cost += g.cost[e] * float64(bottleneck)
		v = int(g.to[e^1])
	}
	res.Flow += bottleneck
}

func (g *Network) hasNegativeCost() bool {
	for e := 0; e < len(g.cost); e += 2 {
		if g.cost[e] < 0 && g.initCap[e] > 0 {
			return true
		}
	}
	return false
}

// bellmanFord computes exact shortest distances from s over edges with
// positive residual capacity, for use as initial potentials. Nodes
// unreachable from s keep potential 0 (they can never be on an augmenting
// path before becoming reachable, at which point Dijkstra assigns them a
// finite distance).
func (g *Network) bellmanFord(s int) ([]float64, error) {
	dist := make([]float64, g.numNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for round := 0; round < g.numNodes; round++ {
		changed := false
		for u := 0; u < g.numNodes; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, e := range g.adj[u] {
				if g.capa[e] <= 0 {
					continue
				}
				v := g.to[e]
				if nd := dist[u] + g.cost[e]; nd < dist[v]-1e-15 {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			for i := range dist {
				if math.IsInf(dist[i], 1) {
					dist[i] = 0
				}
			}
			return dist, nil
		}
	}
	return nil, ErrNegativeCycle
}
