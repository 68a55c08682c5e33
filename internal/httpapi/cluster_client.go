// Cluster tier, client side: a ClusterClient routes the plain gateway API
// across a multi-node cluster using the static tile→node topology, and
// merges the per-node event streams into one global gapless sequence.
//
// Routing is client-side and self-healing: every check-in and retire goes
// straight to the node the client's table says owns it; a node that
// disagrees answers HTTP 421 naming the owner (RedirectError), the client
// patches its table and retries. With a correct table — the steady state —
// every operation is a single hop.
//
// Cluster-level Stats folds per-node GET /stats snapshots.
// Like ltc.Platform.Imbalance, the fold is per-node-consistent, not an
// atomic cut: each node's snapshot is internally consistent, but the nodes
// are sampled at slightly different instants, so transient sums (resolved,
// workers seen) can mix instants. Terminal facts — Done, and every total
// once Done is true — are exact, which is what the loadgen audits.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltc/internal/cluster"
	"ltc/internal/events"
	"ltc/internal/geo"
)

// maxRedirects bounds redirect-heal retries per logical operation. A static
// topology needs at most one heal per stale tile; anything deeper means two
// nodes disagree about ownership and retrying cannot converge.
const maxRedirects = 4

// ClusterClient routes the gateway API across the nodes of one cluster.
// Construct with NewClusterClient; methods are safe for concurrent use.
type ClusterClient struct {
	topo  *cluster.Topology
	nodes []*Client
	// table is the live tile→node routing table: seeded from the topology,
	// healed in place from 421 redirects.
	table []atomic.Int32
	// ownerOf caches initial-task→node ownership once Sync has fetched it
	// (length 0 before). Retires fall back to redirect-following without it.
	ownerOf []atomic.Int32
	// done marks nodes whose platform reported completion through a receipt
	// this client saw. hasTasks marks nodes the topology assigns tiles (and
	// therefore tasks) — the nodes whose completion the cluster waits on.
	done     []atomic.Bool
	hasTasks []bool
}

// NewClusterClient builds a routing client over the given node base URLs,
// one per topology node, in node-ID order.
func NewClusterClient(urls []string, topo *cluster.Topology) (*ClusterClient, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if len(urls) != topo.Nodes {
		return nil, fmt.Errorf("httpapi: %d node URLs for a %d-node topology", len(urls), topo.Nodes)
	}
	c := &ClusterClient{
		topo:     topo,
		nodes:    make([]*Client, len(urls)),
		table:    make([]atomic.Int32, len(topo.TileNode)),
		done:     make([]atomic.Bool, len(urls)),
		hasTasks: make([]bool, len(urls)),
	}
	for i, u := range urls {
		c.nodes[i] = &Client{Base: strings.TrimRight(u, "/")}
	}
	for i, n := range topo.TileNode {
		c.table[i].Store(int32(n))
		c.hasTasks[n] = true // only task tiles (and their BFS fold) get owners
	}
	return c, nil
}

// Node returns the plain client for one node — per-node stats polls and
// tests reach single nodes through it.
func (c *ClusterClient) Node(i int) *Client { return c.nodes[i] }

// Nodes returns the cluster size.
func (c *ClusterClient) Nodes() int { return len(c.nodes) }

// Route returns the node the client's live table routes the worker to.
func (c *ClusterClient) Route(w Worker) int {
	return int(c.table[c.tile(w.X, w.Y)].Load())
}

// tile is the topology tile a wire location falls in.
func (c *ClusterClient) tile(x, y float64) int { return c.topo.TileIndex(geo.Point{X: x, Y: y}) }

// heal is the one statement of the redirect-heal policy. err is what a node
// answered on the given attempt (0-based) of one logical operation routed by
// slot — a tile's table entry or a task's cached owner. Anything but a 421
// is final and returned as is (retry false; nil means success). A 421 names
// the owner: it must be a cluster node, it is stored in slot, and the
// operation retries — unless maxRedirects heals already failed to converge.
func (c *ClusterClient) heal(err error, attempt int, slot *atomic.Int32) (retry bool, _ error) {
	var re *RedirectError
	switch {
	case !errors.As(err, &re):
		return false, err
	case re.Owner < 0 || re.Owner >= len(c.nodes):
		return false, fmt.Errorf("httpapi: redirect to out-of-range node %d", re.Owner)
	case attempt >= maxRedirects:
		return false, fmt.Errorf("httpapi: redirect loop, %d heals did not converge: %w", maxRedirects, re)
	}
	slot.Store(int32(re.Owner))
	return true, nil
}

// CheckIn routes one worker to its owning node. A completed node bounces
// exactly as a completed single-node gateway does (200, "bounced":true),
// so a cluster feed behaves per node as N independent gateway feeds.
func (c *ClusterClient) CheckIn(w Worker) (Receipt, error) {
	slot := &c.table[c.tile(w.X, w.Y)]
	for attempt := 0; ; attempt++ {
		n := int(slot.Load())
		rec, err := c.nodes[n].CheckIn(w)
		if retry, err := c.heal(err, attempt, slot); !retry {
			if err != nil {
				return Receipt{}, err
			}
			if rec.Done {
				c.done[n].Store(true)
			}
			return rec, nil
		}
	}
}

// CheckInBatch routes one batch across the cluster by splitting it into
// maximal same-node runs (consecutive workers routing to one node) and
// posting each run as a node-local batch, preserving arrival order within
// every node. Runs for nodes that already completed are skipped — the
// node-side contract ingests nothing after completion, so the skip is
// wire-equivalent and their workers are simply unobserved, like a truncated
// tail. Receipts cover exactly the ingested workers, in feed order; done
// reports whether every task-owning node has completed.
func (c *ClusterClient) CheckInBatch(ws []Worker) ([]Receipt, bool, error) {
	var recs []Receipt
	heals := 0
	for i := 0; i < len(ws); {
		n := c.Route(ws[i])
		j := i + 1
		for j < len(ws) && c.Route(ws[j]) == n {
			j++
		}
		if c.done[n].Load() {
			i = j
			continue
		}
		run, done, err := c.nodes[n].CheckInBatch(ws[i:j])
		var re *RedirectError
		if errors.As(err, &re) {
			// The node disowned the run's re.Index-th worker: heal that tile
			// and re-split from i (nothing was ingested — node-side ownership
			// checks run before the batch touches the platform).
			if re.Index < 0 || i+re.Index >= j {
				return nil, false, fmt.Errorf("httpapi: batch redirect with bad index %d", re.Index)
			}
			w := ws[i+re.Index]
			if _, err := c.heal(err, heals, &c.table[c.tile(w.X, w.Y)]); err != nil {
				return nil, false, err
			}
			heals++
			continue
		}
		if err != nil {
			return nil, false, err
		}
		recs = append(recs, run...)
		if done {
			c.done[n].Store(true)
		}
		i = j
	}
	return recs, c.Complete(), nil
}

// Complete reports whether every task-owning node has reported completion
// through a receipt this client observed — the client-side view that lets a
// feeder stop without polling. Poll Stats for the authoritative answer.
func (c *ClusterClient) Complete() bool {
	for n, has := range c.hasTasks {
		if has && !c.done[n].Load() {
			return false
		}
	}
	return true
}

// RetireTask retires a cluster-global task ID on its owning node. Posted
// IDs carry their owner arithmetically; initial IDs use the ownership map
// Sync fetched, or redirect-following when the client never synced.
func (c *ClusterClient) RetireTask(id int) error {
	var uncached atomic.Int32 // the route of an ID with no ownership entry
	slot := &uncached
	if node, _, err := c.topo.PostedOwner(id); err == nil {
		uncached.Store(int32(node))
	} else if id >= 0 && id < len(c.ownerOf) {
		slot = &c.ownerOf[id]
	}
	for attempt := 0; ; attempt++ {
		err := c.nodes[slot.Load()].RetireTask(id)
		if retry, err := c.heal(err, attempt, slot); !retry {
			return err
		}
	}
}

// Sync waits for every node to answer, verifies each serves the slot and
// topology this client routes by (node ID, cluster size, fingerprint — a
// fingerprint mismatch means the node generated from different workload
// flags), checks the nodes' initial tasks tile the global ID space exactly
// once, and caches initial-task ownership for RetireTask. Returns the
// per-node infos.
func (c *ClusterClient) Sync(ctx context.Context) ([]ClusterInfo, error) {
	owned := make([]atomic.Int32, c.topo.TotalTasks)
	covered := make([]bool, c.topo.TotalTasks)
	infos := make([]ClusterInfo, len(c.nodes))
	for n, cl := range c.nodes {
		if err := cl.WaitReady(ctx); err != nil {
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		var info ClusterInfo
		if err := cl.doJSON(http.MethodGet, "/cluster/info", nil, &info); err != nil {
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		switch {
		case info.Node != n:
			return nil, fmt.Errorf("url %s serves node %d, expected node %d — shuffled -cluster URLs?", cl.Base, info.Node, n)
		case info.Nodes != c.topo.Nodes:
			return nil, fmt.Errorf("node %d serves a %d-node cluster, topology has %d", n, info.Nodes, c.topo.Nodes)
		case info.Fingerprint != c.topo.Fingerprint():
			return nil, fmt.Errorf("node %d topology fingerprint %s != client %s — mismatched workload flags?",
				n, info.Fingerprint, c.topo.Fingerprint())
		}
		for _, g := range info.Tasks {
			if g < 0 || g >= c.topo.TotalTasks {
				return nil, fmt.Errorf("node %d claims out-of-range task %d", n, g)
			}
			if covered[g] {
				return nil, fmt.Errorf("task %d claimed by two nodes", g)
			}
			covered[g] = true
			owned[g].Store(int32(n))
		}
		infos[n] = info
	}
	for g, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("task %d owned by no node", g)
		}
	}
	c.ownerOf = owned
	return infos, nil
}

// ClusterStats is the fold of per-node stats snapshots. Done ANDs node
// completion, Latency is the max (per-node latency is already in global
// worker-index units, so the cluster's completion time is the slowest
// node's), counts are sums. Per-node-consistent, not an atomic cut — see
// the package comment in cluster_client.go.
type ClusterStats struct {
	Nodes       []NodeStats
	Done        bool
	Tasks       int
	Resolved    int
	Total       int
	WorkersSeen int
	Latency     int
}

// Stats polls every node's /stats and folds them.
func (c *ClusterClient) Stats() (ClusterStats, error) {
	cs := ClusterStats{Nodes: make([]NodeStats, len(c.nodes)), Done: true}
	for n, cl := range c.nodes {
		var st NodeStats
		if err := cl.doJSON(http.MethodGet, "/stats", nil, &st); err != nil {
			return ClusterStats{}, fmt.Errorf("node %d: %w", n, err)
		}
		cs.Nodes[n] = st
		cs.Done = cs.Done && st.Done
		cs.Tasks += st.Tasks
		cs.Resolved += st.Resolved
		cs.Total += st.Total
		cs.WorkersSeen += st.WorkersSeen
		if st.Latency > cs.Latency {
			cs.Latency = st.Latency
		}
	}
	return cs, nil
}

// ClusterEvent is one event of the merged cluster stream: the node it came
// from, its dense cluster sequence number, and the wire event (whose Seq
// stays the node-local sequence the merge folded).
type ClusterEvent struct {
	Node       int
	ClusterSeq uint64
	Event
}

// sourcedEvent tags a node stream's event with its origin.
type sourcedEvent struct {
	node int
	e    Event
}

// ClusterStream is the merged cluster event stream: per-node SSE
// subscriptions supervised (reconnect with capped backoff, resume from the
// last folded per-node sequence) and folded into one global gapless
// sequence by events.StreamMerger. Single-reader, like EventStream.
type ClusterStream struct {
	ctx    context.Context
	cancel context.CancelFunc
	ch     chan sourcedEvent
	merger *events.StreamMerger
	since  []atomic.Uint64
	wg     sync.WaitGroup
}

// OpenClusterEvents starts the merged stream. Unlike OpenEvents it does not
// wait for the node subscriptions to be live — nodes replay their recorded
// log from the beginning, so no event can be missed by subscribing late.
// Close the stream (or cancel ctx) to stop.
func (c *ClusterClient) OpenClusterEvents(ctx context.Context) *ClusterStream {
	ctx, cancel := context.WithCancel(ctx)
	s := &ClusterStream{
		ctx: ctx, cancel: cancel,
		ch:     make(chan sourcedEvent, 64),
		merger: events.NewStreamMerger(len(c.nodes)),
		since:  make([]atomic.Uint64, len(c.nodes)),
	}
	for n := range c.nodes {
		s.wg.Add(1)
		go s.supervise(c.nodes[n], n)
	}
	return s
}

// supervise keeps one node's subscription alive: open (resuming after the
// last folded sequence), pump events to the merge channel, and on any
// disconnect reconnect with capped exponential backoff + jitter. Events
// read but not yet folded are still in the channel when a reconnect
// replays them; the merger rejects those as duplicates and Next drops
// them, so supervision never loses or double-delivers an event.
func (s *ClusterStream) supervise(cl *Client, n int) {
	defer s.wg.Done()
	for attempt := 0; ; attempt++ {
		st, err := cl.OpenEventsSince(s.ctx, s.since[n].Load())
		if err == nil {
			for {
				e, nerr := st.Next()
				if nerr != nil {
					_ = st.Close()
					break
				}
				attempt = 0
				select {
				case s.ch <- sourcedEvent{node: n, e: e}:
				case <-s.ctx.Done():
					_ = st.Close()
					return
				}
			}
		}
		if s.ctx.Err() != nil {
			return
		}
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(backoffDelay(attempt)):
		}
	}
}

// Next blocks for the next event of the merged stream and returns it with
// its cluster sequence number (dense from 1). Reconnect replays are folded
// away silently; a true per-node gap — an event irrecoverably lost — is a
// hard error, never a skip. Returns io.EOF once the stream is closed or
// its context cancelled.
func (s *ClusterStream) Next() (ClusterEvent, error) {
	for {
		select {
		case <-s.ctx.Done():
			return ClusterEvent{}, io.EOF
		case se := <-s.ch:
			cseq, err := s.merger.Fold(se.node, se.e.Seq)
			if errors.Is(err, events.ErrSeqDuplicate) {
				continue
			}
			if err != nil {
				return ClusterEvent{}, err
			}
			s.since[se.node].Store(s.merger.Delivered(se.node))
			return ClusterEvent{Node: se.node, ClusterSeq: cseq, Event: se.e}, nil
		}
	}
}

// Close stops the merged stream and waits for its supervisors to exit.
func (s *ClusterStream) Close() {
	s.cancel()
	s.wg.Wait()
}
