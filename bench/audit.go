package main

import (
	"fmt"

	"ltc/internal/model"
)

// eventKind is the subscriber-side view of a platform event, common to the
// in-process Subscription, a node's SSE stream and the merged cluster
// stream.
type eventKind uint8

const (
	evOther eventKind = iota
	evCompleted
	evPosted
	evRetired
	evDone
)

// event is one received platform event, normalised across front doors.
type event struct {
	kind       eventKind
	task       int
	worker     int    // completing worker's arrival index (evCompleted)
	postIndex  int    // arrival clock at post time (evPosted)
	node       int    // source node on the cluster, 0 elsewhere
	seq        uint64 // the source bus's dense sequence number
	clusterSeq uint64 // merged-stream sequence, 0 off the cluster
}

func kindOf(name string) eventKind {
	switch name {
	case "task_completed":
		return evCompleted
	case "task_posted":
		return evPosted
	case "task_retired":
		return evRetired
	case "platform_done":
		return evDone
	}
	return evOther
}

// ledger is what the event consumer learned during one pass: who completed
// each task and when the notice arrived, plus every delivery fault it saw.
// The consumer goroutine is its only writer; the pass reads it after the
// consumer has stopped.
type ledger struct {
	completedBy  []int32 // task → completing worker index, 0 = no notice yet
	recvAt       []int64 // task → receive time of that notice (ns)
	postIndex    []int32 // task → post index from its task_posted notice
	completions  int     // distinct tasks with a completion notice
	duplicates   int     // second and later completion notices for one task
	platformDone int
	frames       int
	gaps         int // holes in a source's sequence: events lost on the way
	lastSeq      []uint64
	lastCluster  uint64
	clustered    bool
	// nodeRecv[n][s-1] is when the merged stream delivered node n's event
	// s (cluster only), to set against the node's own stream.
	nodeRecv [][]int64
}

func newLedger(tasks, nodes int, clustered bool) *ledger {
	return &ledger{
		completedBy: make([]int32, tasks),
		recvAt:      make([]int64, tasks),
		postIndex:   make([]int32, tasks),
		lastSeq:     make([]uint64, max(nodes, 1)),
		clustered:   clustered,
		nodeRecv:    make([][]int64, max(nodes, 1)),
	}
}

func (l *ledger) grow(task int) {
	for task >= len(l.completedBy) {
		l.completedBy = append(l.completedBy, 0)
		l.recvAt = append(l.recvAt, 0)
		l.postIndex = append(l.postIndex, 0)
	}
}

// observe records one received event.
func (l *ledger) observe(e event, recvNs int64) {
	l.frames++
	if e.node >= 0 && e.node < len(l.lastSeq) {
		if e.seq != l.lastSeq[e.node]+1 {
			l.gaps++
		}
		l.lastSeq[e.node] = e.seq
		if l.clustered {
			l.nodeRecv[e.node] = append(l.nodeRecv[e.node], recvNs)
		}
	}
	if l.clustered {
		if e.clusterSeq != l.lastCluster+1 {
			l.gaps++
		}
		l.lastCluster = e.clusterSeq
	}
	switch e.kind {
	case evCompleted:
		if e.task < 0 {
			l.gaps++
			return
		}
		l.grow(e.task)
		if l.completedBy[e.task] != 0 {
			l.duplicates++
			return
		}
		l.completedBy[e.task] = int32(e.worker)
		l.recvAt[e.task] = recvNs
		l.completions++
	case evPosted:
		if e.task >= 0 {
			l.grow(e.task)
			l.postIndex[e.task] = int32(e.postIndex)
		}
	case evDone:
		l.platformDone++
	}
}

// taskFinal is one task's state when a pass has drained, read from the
// platform (Platform.TaskStatuses and Credits), by global task ID.
type taskFinal struct {
	completed bool
	retired   bool
	credit    float64
	postIndex int
}

// finalState is the platform's account of a drained pass.
type finalState struct {
	done            bool
	resolved, total int
	latency         int // Platform.Latency or /stats latency
	relLatency      int // Platform.RelativeLatency, 0 when not reported
	workersSeen     int
	dropped         uint64 // Subscription.Dropped
	overK           int    // receipts that granted more than K tasks
	tasks           []taskFinal
	doneNotices     int // platform_done notices owed: task-owning nodes
}

// fault is one violated rule of a pass and how many operations it covers.
type fault struct {
	n    int
	what string
}

// auditPass holds the platform's final state against what the subscriber
// was told and returns one fault per violated rule; none means the pass was
// correct. delta is the instance's completion threshold δ; sequential says
// one feeder fed the stream in order (the verification pass).
func auditPass(fs *finalState, l *ledger, delta float64, dynamic, sequential bool) []fault {
	var bad []fault
	fail := func(n int, format string, a ...any) {
		if n > 0 {
			bad = append(bad, fault{n, fmt.Sprintf(format, a...)})
		}
	}
	if !fs.done || fs.resolved != fs.total {
		fail(1, "platform not done: %d/%d resolved", fs.resolved, fs.total)
	}
	fail(fs.overK, "%d receipts granted more than K tasks", fs.overK)
	fail(int(fs.dropped), "subscription dropped %d events", fs.dropped)
	fail(l.gaps, "%d sequence gaps in the event stream", l.gaps)
	fail(l.duplicates, "%d duplicated task_completed notices", l.duplicates)
	lost, spurious, open, short, expired := 0, 0, 0, 0, 0
	for id, t := range fs.tasks {
		noticed := id < len(l.completedBy) && l.completedBy[id] != 0
		switch {
		case t.completed:
			if !noticed {
				lost++
			}
			if !model.Completed(t.credit, delta) {
				short++
			}
		case t.retired:
			expired++
			if noticed {
				spurious++
			}
		default:
			open++
		}
	}
	for id := len(fs.tasks); id < len(l.completedBy); id++ {
		if l.completedBy[id] != 0 {
			spurious++
		}
	}
	fail(lost, "%d completed tasks without a task_completed notice", lost)
	fail(spurious, "%d task_completed notices for tasks that did not complete", spurious)
	fail(open, "%d tasks neither completed nor retired", open)
	fail(short, "%d completed tasks below the credit threshold", short)
	fail(fs.doneNotices-l.platformDone, "%d platform_done notices, want at least %d", l.platformDone, fs.doneNotices)
	// The paper's objective read from the stream must agree with the
	// platform's own account, which is the largest index that received any
	// assignment. Fed in order with every task completing, a task's last
	// assignment is its completing one and the two are equal. Otherwise the
	// platform's figure can only be larger: an expired task keeps its
	// assignments but sends no completion, and two feeders can hand a task
	// its completing worker before a lower index that arrived later.
	if lmax, _, n := l.latencies(fs); n > 0 {
		platform := fs.latency
		if dynamic {
			platform = fs.relLatency
		}
		switch {
		case sequential && !dynamic && expired == 0 && int(lmax) != platform:
			fail(1, "stream latency %d != platform latency %d", int(lmax), platform)
		case int(lmax) > platform:
			fail(1, "stream latency %d > platform latency %d", int(lmax), platform)
		}
	}
	return bad
}

// latencies returns the paper's objective as the subscriber saw it: over
// completed tasks, max and mean of (completing worker index − post index),
// and how many tasks that covers.
func (l *ledger) latencies(fs *finalState) (maxLat, meanLat float64, n int) {
	sum := 0.0
	for id, by := range l.completedBy {
		if by == 0 {
			continue
		}
		post := int(l.postIndex[id])
		if post == 0 && id < len(fs.tasks) {
			// A task_posted notice can trail the completion it enabled;
			// the platform's own record is the same number.
			post = fs.tasks[id].postIndex
		}
		lat := float64(int(by) - post)
		if lat > maxLat {
			maxLat = lat
		}
		sum += lat
		n++
	}
	if n > 0 {
		meanLat = sum / float64(n)
	}
	return maxLat, meanLat, n
}
