package main

import (
	"sync"

	"ltc"
	"ltc/internal/cluster"
	"ltc/internal/core"
	"ltc/internal/dispatch"
	"ltc/internal/events"
	"ltc/internal/geo"
	"ltc/internal/model"
)

// twin is the benchmark's shadow of the layers a front-door call crosses
// but the benchmark cannot reach into: a second dispatcher, and beneath it a
// second set of per-shard engines and candidate indexes, built from the same
// inputs with the same options and fed every worker the real platform was
// fed, right after the real call returns. Timing the twin's public
// functions gives each inner layer's cost on the same input in the same
// state, without touching the program under test.
//
// Both feeders shadow through the one twin, so its methods serialise on mu;
// the timers run inside the lock and never see the wait.
type twin struct {
	mu    sync.Mutex
	spec  *workloadSpec
	tr    *tracer
	topo  *cluster.Topology // cluster workloads only
	nodes []*nodeTwin       // one per cluster node, one off the cluster

	bus     *events.Bus
	busSub  *events.Subscription
	drained chan struct{}
	cand    []model.Candidate
	recs    []ltc.Receipt
	maxSeen int
}

// taskRef locates a global task inside a nodeTwin's engines.
type taskRef struct {
	shard int
	local model.TaskID
}

// nodeTwin shadows one platform: a twin dispatcher, and a twin of what the
// dispatcher holds per shard.
type nodeTwin struct {
	disp *dispatch.Dispatcher
	part *model.Partition
	cis  []*model.CandidateIndex
	engs []*core.Engine
	refs []taskRef
}

func aamFactory(in *model.Instance, ci *model.CandidateIndex) core.Online {
	return core.NewAAM(in, ci)
}

// dispatchOptions mirrors what ltc.NewPlatform hands dispatch.New for the
// workload's spec (see platformOptions).
func dispatchOptions(spec *workloadSpec, in *model.Instance) dispatch.Options {
	o := dispatch.Options{Balanced: spec.Balanced || spec.Churn}
	if spec.Churn {
		prefix := len(in.Workers) / 8
		pts := make([]geo.Point, prefix)
		for i, w := range in.Workers[:prefix] {
			pts[i] = w.Loc
		}
		o.LoadSample = pts
		rb := rebalanceFor(len(in.Workers))
		o.Rebalance = &rb
	}
	return o
}

// partitionOptions is the partition dispatch.New builds from those options:
// when no load profile is given it samples the worker locations, strided
// down to 4096 points.
func partitionOptions(o dispatch.Options, ws []model.Worker) model.PartitionOptions {
	popt := model.PartitionOptions{Balanced: o.Balanced, LoadSample: o.LoadSample}
	if !popt.Balanced || popt.LoadSample != nil || len(ws) == 0 {
		return popt
	}
	const maxLoadSample = 4096
	stride := (len(ws) + maxLoadSample - 1) / maxLoadSample
	for i := 0; i < len(ws); i += stride {
		popt.LoadSample = append(popt.LoadSample, ws[i].Loc)
	}
	return popt
}

func newNodeTwin(spec *workloadSpec, in *model.Instance) (*nodeTwin, error) {
	dopt := dispatchOptions(spec, in)
	disp, err := dispatch.New(in, spec.Shards, aamFactory, dopt)
	if err != nil {
		return nil, err
	}
	part, err := model.PartitionInstanceOpts(in, spec.Shards, partitionOptions(dopt, in.Workers))
	if err != nil {
		return nil, err
	}
	nt := &nodeTwin{disp: disp, part: part, refs: make([]taskRef, len(in.Tasks))}
	for si, sub := range part.Shards {
		ci := model.NewCandidateIndex(sub.In)
		nt.cis = append(nt.cis, ci)
		nt.engs = append(nt.engs, core.NewEngine(sub.In, ci, aamFactory))
		for local, gid := range sub.Global {
			nt.refs[gid] = taskRef{shard: si, local: model.TaskID(local)}
		}
	}
	return nt, nil
}

func newTwin(in *inputs, tr *tracer) (*twin, error) {
	tw := &twin{spec: in.spec, tr: tr, bus: events.NewBus(), drained: make(chan struct{})}
	if in.spec.Nodes > 0 {
		topo, err := cluster.Build(in.in, in.spec.Nodes)
		if err != nil {
			return nil, err
		}
		split, err := cluster.SplitInstance(in.in, topo)
		if err != nil {
			return nil, err
		}
		tw.topo = topo
		tw.nodes = make([]*nodeTwin, topo.Nodes)
		for n, sub := range split.Subs {
			if sub == nil {
				continue
			}
			if tw.nodes[n], err = newNodeTwin(in.spec, sub.In); err != nil {
				return nil, err
			}
		}
	} else {
		nt, err := newNodeTwin(in.spec, in.in)
		if err != nil {
			return nil, err
		}
		tw.nodes = []*nodeTwin{nt}
	}
	tw.busSub = tw.bus.Subscribe(eventBuffer)
	go func() {
		defer close(tw.drained)
		for e := range tw.busSub.Events() {
			// The publisher stamped its send time into PostIndex.
			tr.deliver.add(tr.now() - int64(e.PostIndex))
		}
	}()
	return tw, nil
}

// since is the length of a shadow span opened at a, less the clock's own
// cost.
func (tw *twin) since(a int64) int64 {
	return max(tw.tr.now()-a-tw.tr.emptyNs, 0)
}

// route shadows the cluster client's routing decision under parent and
// returns the owning node.
func (tw *twin) route(op *opTrace, parent int, loc geo.Point) int {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	a := tw.tr.now()
	n := tw.topo.NodeFor(loc)
	op.add(spRoute, parent, true, 1, 0, tw.since(a))
	return n
}

// shadowWorkers replays one front-door call's workers on node's twin and
// records, under parent, the dispatcher call and beneath it the routing,
// candidate query, solver and publish work it implies. On the async path
// the engine spans are recorded as roots: that work is not on the enqueue's
// blocking path.
func (tw *twin) shadowWorkers(op *opTrace, parent, node int, ws []model.Worker) {
	if len(ws) == 0 {
		return
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	nt := tw.nodes[node]
	if nt == nil {
		return
	}
	now := tw.tr.now

	// The twin's errors mirror the real platform's (done bounces), which the
	// real call already accounted for.
	var disp int
	a := now()
	switch tw.spec.Mode {
	case modeBatch, modeWireBatch:
		tw.recs, _ = nt.disp.CheckInBatchInto(ws, tw.recs[:0])
		disp = op.add(spBatch, parent, true, len(ws), 0, tw.since(a))
	case modeAsync:
		_ = nt.disp.CheckInAsync(ws[0])
		op.add(spEnqueue, parent, true, 1, 0, tw.since(a))
		disp = -1
	default:
		_, _ = nt.disp.CheckIn(ws[0])
		disp = op.add(spCheckIn, parent, true, 1, 0, tw.since(a))
	}

	batched := len(ws) > 1
	var dLoc, dCand, dArr, dPub int64
	pubs, pinned := 0, -1
	for _, w := range ws {
		tw.maxSeen = max(tw.maxSeen, w.Index)
		a = now()
		si := nt.part.Locate(w.Loc)
		dLoc += tw.since(a)
		if batched && si != pinned {
			// A batch run pins one index snapshot per same-shard run, as
			// the dispatcher's batch path does.
			if pinned >= 0 {
				nt.engs[pinned].EndBatch()
			}
			nt.engs[si].BeginBatch()
			pinned = si
		}
		eng := nt.engs[si]
		if eng.Done() {
			continue
		}
		a = now()
		tw.cand = nt.cis[si].Candidates(w, tw.cand[:0])
		dCand += tw.since(a)
		tw.tr.queries++
		tw.tr.scanned += int64(len(tw.cand))
		a = now()
		out := eng.Arrive(w)
		dArr += tw.since(a)
		tw.tr.arrivals++
		tw.tr.grants += int64(len(out))
		for _, oc := range out {
			if oc.Completed {
				a = now()
				tw.bus.Publish(events.Event{Kind: events.TaskCompleted, Task: oc.Task, Worker: w.Index, PostIndex: int(a)})
				dPub += tw.since(a)
				pubs++
			}
		}
	}
	if pinned >= 0 {
		nt.engs[pinned].EndBatch()
	}
	n := len(ws)
	op.add(spLocate, disp, true, n, 0, dLoc)
	arr := op.add(spArrive, disp, true, n, 0, dArr)
	op.add(spCandidates, arr, true, n, 0, dCand)
	if pubs > 0 {
		op.add(spPublish, disp, true, pubs, 0, dPub)
	}
}

// post mirrors a PostTask on the twins (dynamic workload).
func (tw *twin) post(t ltc.Task) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	nt := tw.nodes[0]
	// The twins were built from the same inputs, so a post can only fail
	// where the real one did, and that one was reported.
	_, _ = nt.disp.PostTask(t)
	si := nt.part.Locate(t.Loc)
	local := nt.part.Shards[si].AppendTask(model.Task{ID: t.ID, Loc: t.Loc})
	if err := nt.engs[si].PostTask(local, tw.maxSeen); err != nil {
		nt.part.Shards[si].TruncateLast()
		return
	}
	nt.refs = append(nt.refs, taskRef{shard: si, local: local.ID})
}

// retire mirrors a RetireTask on the twins (dynamic workload).
func (tw *twin) retire(id ltc.TaskID) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	nt := tw.nodes[0]
	_ = nt.disp.RetireTask(id)
	if int(id) < len(nt.refs) {
		ref := nt.refs[id]
		_, _ = nt.engs[ref.shard].RetireTask(ref.local)
	}
}

// close stops the twin's drainers and its bus subscriber; the tracer's
// deliver sampler and twin counters are quiescent afterwards.
func (tw *twin) close() {
	for _, nt := range tw.nodes {
		if nt != nil {
			_ = nt.disp.Close() // always nil
		}
	}
	tw.busSub.Close()
	<-tw.drained
}
