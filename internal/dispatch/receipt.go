package dispatch

import "ltc/internal/model"

// TaskGrant is one assignment handed to a worker at check-in time: the
// global task, the Acc* quality credit the assignment contributed, and
// whether it pushed the task over its quality threshold δ. The solvers
// never assign a completed task, so Completed marks exactly the assignment
// that finished each task — a caller watching its own receipts learns of
// every completion it caused without re-polling TaskStatuses.
//
// Grants are carved in blocks of 1024 on the check-in hot path, so the
// field order is alignment-optimal (Credit first), 16 bytes instead of the
// declaration-ordered 24 — TestTaskGrantSizeof keeps it that way.
type TaskGrant struct {
	Credit    float64
	Task      model.TaskID
	Completed bool
}

// Receipt is the structured result of one check-in — everything the
// platform decided at arrival time, so service callers never poll after a
// check-in:
//
//   - Worker echoes the global arrival index the check-in was accounted
//     under.
//   - Shard is the spatial shard the worker routed to, or -1 when the
//     check-in bounced with ErrDone before routing (the platform was
//     already complete).
//   - Assignments lists the granted tasks in assignment order (nil when
//     the worker received none — also when its shard had already completed
//     all its tasks).
//   - Done reports whether the platform had no open tasks once this
//     check-in was ingested. Under concurrent posting it is a snapshot, not
//     a promise — a PostTask racing the check-in can reopen the platform.
type Receipt struct {
	Worker      int
	Shard       int
	Assignments []TaskGrant
	Done        bool
}
