package flow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSingleEdge(t *testing.T) {
	g := NewNetwork(2)
	e := g.AddEdge(0, 1, 5, 2.0)
	res, err := g.MinCostFlow(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 5 || res.Cost != 10 {
		t.Fatalf("res = %+v, want flow 5 cost 10", res)
	}
	if g.Flow(e) != 5 || g.capa[e] != 0 {
		t.Fatalf("edge flow %d residual %d", g.Flow(e), g.capa[e])
	}
	if err := g.checkConservation(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 2-hop paths, one cheap one expensive; capacity forces one
	// unit on each, cheap first.
	g := NewNetwork(4)
	g.AddEdge(0, 1, 1, 1.0)
	g.AddEdge(1, 3, 1, 1.0)
	g.AddEdge(0, 2, 1, 10.0)
	g.AddEdge(2, 3, 1, 10.0)
	res, err := g.MinCostFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != 22 {
		t.Fatalf("res = %+v, want flow 2 cost 22", res)
	}
}

func TestNegativeCostEdges(t *testing.T) {
	// The LTC construction uses negative costs (-Acc*). Check a case where
	// taking the negative-cost detour is cheaper.
	g := NewNetwork(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, -0.9)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 3, 1, -0.5)
	res, err := g.MinCostFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || math.Abs(res.Cost-(-1.4)) > 1e-12 {
		t.Fatalf("res = %+v, want flow 2 cost -1.4", res)
	}
}

func TestFlowRerouting(t *testing.T) {
	// Classic case where SSPA must push flow back along a residual edge.
	//   0 -> 1 cap 1 cost 1 ; 0 -> 2 cap 1 cost 2
	//   1 -> 2 cap 1 cost -2 ; 1 -> 3 cap 1 cost 3 ; 2 -> 3 cap 1 cost 1
	g := NewNetwork(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(1, 2, 1, -2)
	g.AddEdge(1, 3, 1, 3)
	g.AddEdge(2, 3, 1, 1)
	resD, err := g.MinCostFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2 := rebuild(g)
	resS, err := g2.sspaSPFA(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Flow != resS.Flow || math.Abs(resD.Cost-resS.Cost) > 1e-9 {
		t.Fatalf("engines disagree: dijkstra %+v vs spfa %+v", resD, resS)
	}
	if resD.Flow != 2 {
		t.Fatalf("max flow = %d, want 2", resD.Flow)
	}
	if err := g.checkConservation(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedSink(t *testing.T) {
	g := NewNetwork(3)
	g.AddEdge(0, 1, 5, 1)
	res, err := g.MinCostFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("res = %+v, want zero flow", res)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := NewNetwork(2)
	g.AddEdge(0, 1, 1, 1)
	res, err := g.MinCostFlow(0, 0)
	if err != nil || res.Flow != 0 {
		t.Fatalf("res = %+v err=%v", res, err)
	}
}

func TestZeroCapacityEdgeIgnored(t *testing.T) {
	g := NewNetwork(2)
	g.AddEdge(0, 1, 0, -100)
	res, err := g.MinCostFlow(0, 1)
	if err != nil || res.Flow != 0 {
		t.Fatalf("res = %+v err=%v", res, err)
	}
}

func TestNegativeCycleDetectedBySPFA(t *testing.T) {
	// 1 -> 2 -> 1 negative cycle with residual capacity, reachable from 0.
	g := NewNetwork(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 5, -3)
	g.AddEdge(2, 1, 5, -3)
	g.AddEdge(2, 3, 1, 0)
	_, err := g.sspaSPFA(0, 3)
	if !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err = %v, want ErrNegativeCycle", err)
	}
	_, err = rebuild(g).MinCostFlow(0, 3)
	if !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("MinCostFlow err = %v, want ErrNegativeCycle (from Bellman-Ford init)", err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewNetwork(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1, 0) },
		func() { g.AddEdge(0, 5, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
		func() { NewNetwork(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// rebuild clones the network topology with fresh capacities.
func rebuild(g *Network) *Network {
	h := NewNetwork(g.numNodes)
	for e := 0; e < len(g.to); e += 2 {
		from := int(g.to[e^1])
		to := int(g.to[e])
		h.AddEdge(from, to, g.initCap[e], g.cost[e])
	}
	return h
}

// buildRandomBipartite creates an LTC-shaped network: source 0, workers
// 1..nw, tasks nw+1..nw+nt, sink last. Returns the network plus dimensions.
func buildRandomBipartite(rng *rand.Rand, nw, nt int, k, demand int32) *Network {
	g := NewNetwork(nw + nt + 2)
	s := 0
	sink := nw + nt + 1
	for w := 1; w <= nw; w++ {
		g.AddEdge(s, w, k, 0)
	}
	for ti := 0; ti < nt; ti++ {
		g.AddEdge(nw+1+ti, sink, demand, 0)
	}
	for w := 1; w <= nw; w++ {
		for ti := 0; ti < nt; ti++ {
			if rng.Float64() < 0.8 {
				cost := -(0.1 + 0.9*rng.Float64()) // -Acc* ∈ (-1, -0.1)
				g.AddEdge(w, nw+1+ti, 1, cost)
			}
		}
	}
	return g
}

// TestEnginesAgreeOnRandomBipartite cross-validates MinCostFlow against the
// SPFA reference on many random LTC-shaped instances: equal max flow and
// equal min cost.
func TestEnginesAgreeOnRandomBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nw := rng.Intn(8) + 2
		nt := rng.Intn(5) + 1
		k := int32(rng.Intn(3) + 1)
		demand := int32(rng.Intn(3) + 1)
		g1 := buildRandomBipartite(rng, nw, nt, k, demand)
		g2 := rebuild(g1)
		sink := nw + nt + 1
		r1, err := g1.MinCostFlow(0, sink)
		if err != nil {
			t.Fatalf("trial %d dijkstra: %v", trial, err)
		}
		r2, err := g2.sspaSPFA(0, sink)
		if err != nil {
			t.Fatalf("trial %d spfa: %v", trial, err)
		}
		if r1.Flow != r2.Flow {
			t.Fatalf("trial %d: flow %d vs %d", trial, r1.Flow, r2.Flow)
		}
		if math.Abs(r1.Cost-r2.Cost) > 1e-6 {
			t.Fatalf("trial %d: cost %v vs %v", trial, r1.Cost, r2.Cost)
		}
		if err := g1.checkConservation(0, sink); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g2.checkConservation(0, sink); err != nil {
			t.Fatalf("trial %d spfa: %v", trial, err)
		}
	}
}

// bruteForceBipartite enumerates all feasible assignments of workers to
// tasks (each worker ≤ k tasks, each task ≤ demand workers, edge used at
// most once) and returns (maxMatched, minCost among max-matched).
func bruteForceBipartite(costs [][]float64, k, demand int) (int, float64) {
	nw := len(costs)
	nt := 0
	if nw > 0 {
		nt = len(costs[0])
	}
	taskLoad := make([]int, nt)
	bestFlow := 0
	bestCost := math.Inf(1)
	var rec func(w, used int, cost float64)
	var chooseTasks func(w, from, chosen, used int, cost float64)
	rec = func(w, used int, cost float64) {
		if w == nw {
			if used > bestFlow || (used == bestFlow && cost < bestCost) {
				bestFlow = used
				bestCost = cost
			}
			return
		}
		chooseTasks(w, 0, 0, used, cost)
	}
	chooseTasks = func(w, from, chosen, used int, cost float64) {
		rec(w+1, used, cost) // stop assigning this worker
		if chosen == k {
			return
		}
		for ti := from; ti < nt; ti++ {
			if math.IsInf(costs[w][ti], 1) || taskLoad[ti] >= demand {
				continue
			}
			taskLoad[ti]++
			chooseTasks(w, ti+1, chosen+1, used+1, cost+costs[w][ti])
			taskLoad[ti]--
		}
	}
	// chooseTasks calls rec both before and after assignments, which
	// double-counts the "assign nothing" branch; dedupe by having rec
	// evaluated on every path — acceptable for exhaustive search.
	rec(0, 0, 0)
	if bestFlow == 0 {
		bestCost = 0
	}
	return bestFlow, bestCost
}

// TestAgainstBruteForce verifies min-cost max-flow optimality exhaustively
// on small random instances.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nw := rng.Intn(3) + 2 // 2..4 workers
		nt := rng.Intn(2) + 2 // 2..3 tasks
		k := rng.Intn(2) + 1
		demand := rng.Intn(2) + 1
		costs := make([][]float64, nw)
		g := NewNetwork(nw + nt + 2)
		sink := nw + nt + 1
		for w := 0; w < nw; w++ {
			g.AddEdge(0, w+1, int32(k), 0)
		}
		for ti := 0; ti < nt; ti++ {
			g.AddEdge(nw+1+ti, sink, int32(demand), 0)
		}
		for w := 0; w < nw; w++ {
			costs[w] = make([]float64, nt)
			for ti := 0; ti < nt; ti++ {
				if rng.Float64() < 0.75 {
					c := -(0.1 + 0.9*rng.Float64())
					costs[w][ti] = c
					g.AddEdge(w+1, nw+1+ti, 1, c)
				} else {
					costs[w][ti] = math.Inf(1)
				}
			}
		}
		wantFlow, wantCost := bruteForceBipartite(costs, k, demand)
		res, err := g.MinCostFlow(0, sink)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if int(res.Flow) != wantFlow {
			t.Fatalf("trial %d: flow %d, brute force %d", trial, res.Flow, wantFlow)
		}
		if math.Abs(res.Cost-wantCost) > 1e-9 {
			t.Fatalf("trial %d: cost %v, brute force %v", trial, res.Cost, wantCost)
		}
	}
}

// BenchmarkSSPABipartite times MinCostFlow against the SPFA reference on
// the same LTC-shaped networks: 100 workers of capacity 4, 20 tasks of
// demand 5, 80 % of the pairs eligible.
func BenchmarkSSPABipartite(b *testing.B) {
	for _, e := range []struct {
		name  string
		solve func(g *Network, s, t int) (Result, error)
	}{{"Dijkstra", (*Network).MinCostFlow}, {"SPFA", (*Network).sspaSPFA}} {
		b.Run(e.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := buildRandomBipartite(rng, 100, 20, 4, 5)
				if _, err := e.solve(g, 0, 121); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sspaSPFA is the reference that MinCostFlow is checked against: SSPA
// recomputing exact shortest paths each round with a queue-based
// Bellman-Ford, which handles negative residual costs natively and shares
// nothing with MinCostFlow but augment.
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

// checkConservation verifies flow conservation at every node except s and t
// and that no edge exceeds its capacity.
func (g *Network) checkConservation(s, t int) error {
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
