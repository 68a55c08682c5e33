// Package flow implements the minimum-cost-flow substrate of the MCF-LTC
// algorithm (paper §III). The paper reduces each batch's task-worker
// arrangement to a min-cost max-flow instance and solves it with the
// Successive Shortest Path Algorithm (SSPA), chosen because it handles
// "large-scale data and many-to-many matching with real-valued arc costs"
// (citing Yiu et al., SIGMOD 2008).
//
// Two SSPA engines are provided:
//
//   - Dijkstra with Johnson potentials (default): after one initial
//     Bellman–Ford pass to absorb the negative -Acc* arc costs into node
//     potentials, every augmentation runs Dijkstra on non-negative reduced
//     costs. This is the fast path used by MCF-LTC.
//   - SPFA (Bellman–Ford queue variant) per augmentation: slower but
//     independent, used to cross-validate the default engine in tests.
//
// Each augmentation sends the bottleneck capacity of the shortest path.
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

// NumNodes reports the node count.
func (g *Network) NumNodes() int { return g.numNodes }

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

// Residual returns the remaining capacity of forward edge e.
func (g *Network) Residual(e int) int32 { return g.capa[e] }

// Reset restores all edges to their initial capacities, discarding any flow.
func (g *Network) Reset() {
	copy(g.capa, g.initCap)
}

// Engine selects the shortest-path engine used by SSPA.
type Engine int

const (
	// EngineDijkstra uses Johnson potentials + Dijkstra (default, fast).
	EngineDijkstra Engine = iota
	// EngineSPFA recomputes shortest paths with a queue-based Bellman-Ford
	// on every augmentation. Reference implementation for tests.
	EngineSPFA
)

// Result reports the outcome of a min-cost-flow computation.
type Result struct {
	Flow int32
	Cost float64
}

// ErrNegativeCycle is returned when the residual network contains a
// negative-cost cycle reachable from the source (SSPA's invariants do not
// hold then). The LTC networks are bipartite DAGs and can never trigger it.
var ErrNegativeCycle = errors.New("flow: negative-cost cycle detected")

// MinCostMaxFlow routes the maximum feasible flow from s to t at minimum
// total cost using SSPA on the default engine.
func (g *Network) MinCostMaxFlow(s, t int) (Result, error) {
	return g.MinCostFlow(s, t, EngineDijkstra)
}

// MinCostFlow routes the maximum feasible flow from s to t at minimum total
// cost using SSPA on the given engine.
func (g *Network) MinCostFlow(s, t int, engine Engine) (Result, error) {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes {
		panic("flow: source/sink out of range")
	}
	if s == t {
		return Result{}, nil
	}
	if engine == EngineSPFA {
		return g.sspaSPFA(s, t)
	}
	return g.sspaDijkstra(s, t)
}

// sspaDijkstra is SSPA with Johnson potentials.
func (g *Network) sspaDijkstra(s, t int) (Result, error) {
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
			u, du := heap.PopMin()
			if du > dist[u] {
				continue
			}
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

// sspaSPFA is SSPA recomputing exact shortest paths each round with a
// queue-based Bellman-Ford. Handles negative residual costs natively.
func (g *Network) sspaSPFA(s, t int) (Result, error) {
	dist := make([]float64, g.numNodes)
	prevEdge := make([]int32, g.numNodes)
	inQueue := make([]bool, g.numNodes)
	relaxes := make([]int32, g.numNodes)

	var res Result
	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
			inQueue[i] = false
			relaxes[i] = 0
		}
		dist[s] = 0
		queue := make([]int32, 0, g.numNodes)
		queue = append(queue, int32(s))
		inQueue[s] = true
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			inQueue[u] = false
			for _, e := range g.adj[u] {
				if g.capa[e] <= 0 {
					continue
				}
				v := int(g.to[e])
				if nd := dist[u] + g.cost[e]; nd < dist[v]-1e-15 {
					dist[v] = nd
					prevEdge[v] = e
					if !inQueue[v] {
						relaxes[v]++
						if int(relaxes[v]) > g.numNodes {
							return res, ErrNegativeCycle
						}
						queue = append(queue, int32(v))
						inQueue[v] = true
					}
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break
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

// CheckConservation verifies flow conservation at every node except s and t
// and that no edge exceeds its capacity. Used by tests and debug builds.
func (g *Network) CheckConservation(s, t int) error {
	balance := make([]int64, g.numNodes)
	for e := 0; e < len(g.to); e += 2 {
		f := g.Flow(e)
		if f < 0 || f > g.initCap[e] {
			return fmt.Errorf("flow: edge %d flow %d outside [0,%d]", e, f, g.initCap[e])
		}
		from := int(g.to[e^1])
		to := int(g.to[e])
		balance[from] -= int64(f)
		balance[to] += int64(f)
	}
	for v, b := range balance {
		if v == s || v == t {
			continue
		}
		if b != 0 {
			return fmt.Errorf("flow: node %d violates conservation by %d", v, b)
		}
	}
	return nil
}
