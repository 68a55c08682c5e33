// Cluster tier, node side: a ClusterServer wraps one node's Platform (the
// sub-instance of the global task set its topology tiles assign it) in the
// same HTTP surface as a plain gateway, plus the cluster-specific contract:
//
//   - ownership checks — a check-in, post or retire whose owner is another
//     node is rejected with HTTP 421 (Misdirected Request) and a JSON body
//     naming the owner, which clients use to self-heal a stale routing
//     table (see RedirectError);
//   - task-ID translation — the wire speaks cluster-global IDs everywhere
//     (receipts, events, /tasks, DELETE /tasks/{id}); the node's platform
//     only ever sees its dense local IDs;
//   - a global event log — the node records its platform's events, as the
//     plain gateway does, with their task IDs made cluster-global, and
//     GET /events?since=N resumes a node stream after the N-th event, so a
//     reconnecting cluster subscriber can preserve the exactly-once audit
//     across connection loss;
//   - GET /cluster/info — the node's identity, its owned initial tasks and
//     the topology fingerprint, letting clients verify the cluster matches
//     the workload flags they generated from before any traffic flows.
//
// See CONCURRENCY.md, "Cluster tier".
package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/events"
	"ltc/internal/geo"
)

// RedirectError is the typed client-side form of an HTTP 421 response: the
// request reached a node that does not own the task or tile it concerns.
// Owner is the node that does; clients heal their routing table with it and
// retry. Index is the offset of the first misrouted worker inside a batch
// (-1 for single-object requests), so batch clients can re-split from the
// exact worker that routed wrong.
type RedirectError struct {
	Owner int
	Index int
	Msg   string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("httpapi: misdirected request, owner is node %d: %s", e.Owner, e.Msg)
}

// redirectBody is the JSON body of an HTTP 421 response.
type redirectBody struct {
	Error string `json:"error"`
	Owner int    `json:"owner"`
	Index int    `json:"index"`
}

func writeRedirect(w http.ResponseWriter, owner, index int, msg string) {
	writeJSON(w, http.StatusMisdirectedRequest, redirectBody{Error: msg, Owner: owner, Index: index})
}

// ClusterInfo is GET /cluster/info's result. Tasks lists the cluster-global
// IDs of the initial tasks this node owns (empty for a node owning no
// tiles); Fingerprint ties the node's routing table to the exact tiling, so
// a client can detect mismatched workload flags before any traffic flows.
type ClusterInfo struct {
	Node        int    `json:"node"`
	Nodes       int    `json:"nodes"`
	TotalTasks  int    `json:"total_tasks"`
	Fingerprint string `json:"fingerprint"`
	Tasks       []int  `json:"tasks"`
}

// NodeStats is a cluster node's GET /stats result: the plain Stats snapshot
// plus the node's identity, so folded cluster stats stay attributable.
type NodeStats struct {
	Stats
	Node         int `json:"node"`
	ClusterNodes int `json:"cluster_nodes"`
}

// ClusterServer serves one cluster node: a decorator around the plain
// gateway's node that adds only what is cluster-specific — the ownership
// check, global↔local task-ID translation (in the event log too) and
// /cluster/info — and is served by the same handler set. Construct with
// NewClusterServer, serve Handler(), and Close when done (it detaches the
// event log's recorder from the platform's bus).
type ClusterServer struct {
	topo    *cluster.Topology
	node    int
	inner   ingress            // the node's platform, speaking local task IDs
	global  []ltc.TaskID       // local → cluster-global, initial tasks
	localOf map[int]ltc.TaskID // cluster-global → local, initial tasks
	ownerOf []int32            // cluster-global initial task → owning node
	log     *eventLog
	unrec   func() // detaches the log's recorder; nil when the node owns no tiles
	mux     *http.ServeMux
}

// NewClusterServer wraps node's platform in the cluster HTTP surface.
// p must be nil exactly when the topology assigns the node no tiles (its
// split sub-instance is nil); such a node still serves — it redirects every
// check-in, reports trivially-done stats and an empty event stream — so a
// cluster boots uniformly regardless of how tasks landed on tiles.
func NewClusterServer(p *ltc.Platform, algo ltc.Algorithm, requestedShards int,
	topo *cluster.Topology, node int, split *cluster.Split) (*ClusterServer, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if node < 0 || node >= topo.Nodes {
		return nil, fmt.Errorf("httpapi: node %d outside topology [0,%d)", node, topo.Nodes)
	}
	if len(split.Subs) != topo.Nodes || len(split.OwnerOf) != topo.TotalTasks {
		return nil, errors.New("httpapi: split does not match the topology")
	}
	sub := split.Subs[node]
	if (sub == nil) != (p == nil) {
		return nil, fmt.Errorf("httpapi: node %d platform/sub-instance mismatch (owns tasks: %v, platform: %v)",
			node, sub != nil, p != nil)
	}
	s := &ClusterServer{
		topo: topo, node: node, inner: idleNode{algo: string(algo), requested: requestedShards},
		ownerOf: split.OwnerOf, localOf: make(map[int]ltc.TaskID), log: newEventLog(),
	}
	if sub != nil {
		s.inner = platformNode{p: p, algo: string(algo), requested: requestedShards}
		s.global = sub.Global
		for local, g := range sub.Global {
			s.localOf[int(g)] = ltc.TaskID(local)
		}
		// Record the node's whole event history from boot: the log is what
		// makes GET /events?since=N resumable. The bus calls the recorder
		// with every event, in Seq order, as it publishes it, so the log
		// cannot have a hole.
		s.unrec = events.RecordPlatform(p, s.record)
	}
	s.mux = newMux(s, s.log)
	s.mux.HandleFunc("GET /cluster/info", s.handleInfo)
	return s, nil
}

// Handler returns the node's HTTP surface.
func (s *ClusterServer) Handler() http.Handler { return s.mux }

// Close detaches the event log's recorder from the platform's bus. Open
// /events streams drain the recorded log and then block until their clients
// disconnect. Safe to call more than once.
func (s *ClusterServer) Close() {
	if s.unrec != nil {
		s.unrec()
	}
}

// record appends a platform event to the log, on the publishing goroutine
// under the bus lock (see events.Bus.Record). An event that names no task
// carries Task -1, which passes through untouched. Seq stays the node-local
// dense sequence — the cluster merger folds per-node sequences, never
// rewrites them.
func (s *ClusterServer) record(e ltc.Event) {
	we := FromEvent(e)
	if we.Task >= 0 {
		we.Task = s.globalID(we.Task)
	}
	s.log.append(we)
}

// globalID translates a node-local task ID to its cluster-global ID:
// initial tasks by the split's table, posted tasks by the topology's
// disjoint per-node arithmetic progression (the k-th post on this node is
// local ID len(initial)+k — the platform numbers posts densely).
func (s *ClusterServer) globalID(local int) int {
	if local < len(s.global) {
		return int(s.global[local])
	}
	return s.topo.PostedGlobalID(s.node, local-len(s.global))
}

// globalize translates every grant's task ID in place.
func (s *ClusterServer) globalize(grants []Grant) {
	for i := range grants {
		grants[i].Task = s.globalID(grants[i].Task)
	}
}

// owner routes a wire location to the node owning it.
func (s *ClusterServer) owner(x, y float64) int { return s.topo.NodeFor(geo.Point{X: x, Y: y}) }

// redirect is the typed 421: the request belongs to owner. index is the
// misrouted worker's offset in its batch, -1 for single-object requests.
func redirect(owner, index int, format string, args ...any) error {
	return &RedirectError{Owner: owner, Index: index, Msg: fmt.Sprintf(format, args...)}
}

func (s *ClusterServer) checkIn(w Worker) (Receipt, error) {
	if owner := s.owner(w.X, w.Y); owner != s.node {
		return Receipt{}, redirect(owner, -1, "check-in at (%g, %g) belongs to node %d", w.X, w.Y, owner)
	}
	rec, err := s.inner.checkIn(w)
	s.globalize(rec.Assignments)
	return rec, err
}

func (s *ClusterServer) checkInBatch(req BatchRequest) (BatchResponse, error) {
	// Ownership is all-or-nothing per batch: reject before ingesting anything
	// so a redirected batch is fully re-presentable after the client heals.
	for i, w := range req.Workers {
		if owner := s.owner(w.X, w.Y); owner != s.node {
			return BatchResponse{}, redirect(owner, i, "batch worker %d (index %d) belongs to node %d", i, w.Index, owner)
		}
	}
	resp, err := s.inner.checkInBatch(req)
	for _, rec := range resp.Receipts {
		s.globalize(rec.Assignments)
	}
	return resp, err
}

func (s *ClusterServer) postTask(t TaskRequest) (TaskResponse, error) {
	if owner := s.owner(t.X, t.Y); owner != s.node {
		return TaskResponse{}, redirect(owner, -1, "task at (%g, %g) belongs to node %d", t.X, t.Y, owner)
	}
	resp, err := s.inner.postTask(t)
	if err == nil {
		resp.ID = s.globalID(resp.ID)
	}
	return resp, err
}

func (s *ClusterServer) retireTask(g int) error {
	if g < 0 {
		return &statusError{http.StatusBadRequest, fmt.Errorf("bad task id \"%d\"", g)}
	}
	// Initial IDs are owned by the split's table, posted IDs by arithmetic.
	var owner int
	var local ltc.TaskID
	if g < s.topo.TotalTasks {
		owner, local = int(s.ownerOf[g]), s.localOf[g] // local valid iff owner == s.node
	} else {
		n, k, _ := s.topo.PostedOwner(g) // cannot fail: g is in the posted range
		owner, local = n, ltc.TaskID(len(s.global)+k)
	}
	if owner != s.node {
		return redirect(owner, -1, "task %d belongs to node %d", g, owner)
	}
	// A posted ID can claim this node as owner without the node ever having
	// posted it; the platform's own range check turns that into a 404.
	return s.inner.retireTask(int(local))
}

func (s *ClusterServer) stats() any {
	// Both ingress implementations snapshot a plain Stats.
	return NodeStats{Stats: s.inner.stats().(Stats), Node: s.node, ClusterNodes: s.topo.Nodes}
}

func (s *ClusterServer) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := ClusterInfo{
		Node: s.node, Nodes: s.topo.Nodes, TotalTasks: s.topo.TotalTasks,
		Fingerprint: s.topo.Fingerprint(), Tasks: make([]int, 0, len(s.global)),
	}
	for _, g := range s.global {
		info.Tasks = append(info.Tasks, int(g))
	}
	writeJSON(w, http.StatusOK, info)
}

// idleNode is the platform of a node the topology assigns no tiles: it owns
// nothing, so it is trivially done and perfectly even, holds no retirable
// task, and ingests nothing. Owning a tile implies owning its tasks, so a
// consistent topology never routes traffic here; a worker or post reaching
// it means the served topology diverged from the split.
type idleNode struct {
	algo      string
	requested int
}

var errNoPlatform = &statusError{http.StatusInternalServerError, errors.New("node owns the tile but has no platform")}

func (idleNode) checkIn(Worker) (Receipt, error) { return Receipt{}, errNoPlatform }

func (idleNode) checkInBatch(req BatchRequest) (BatchResponse, error) {
	if len(req.Workers) > 0 {
		return BatchResponse{}, errNoPlatform
	}
	return BatchResponse{Done: true}, nil
}

func (idleNode) postTask(TaskRequest) (TaskResponse, error) { return TaskResponse{}, errNoPlatform }

func (idleNode) retireTask(id int) error { return fmt.Errorf("unknown task %d", id) }

func (n idleNode) stats() any {
	return Stats{Algo: n.algo, RequestedShards: n.requested, Done: true, Imbalance: 1}
}
