package ltc

import (
	"errors"
	"fmt"
)

// ChurnReport summarises one sequential replay of a churn workload.
type ChurnReport struct {
	// AbsoluteLatency is the paper's objective: the largest worker index
	// with an assignment. RelativeLatency measures from each task's post
	// index instead (equal when nothing was posted late).
	AbsoluteLatency int
	RelativeLatency int
	// Completed tasks reached δ; Expired were retired before reaching it.
	Completed int
	Expired   int
	// WorkersFed is how many workers of the stream were consumed.
	WorkersFed int
	// Statuses is the final per-task lifecycle snapshot, in TaskID order.
	Statuses []TaskStatus
}

// churnLoadSamplePrefix is how much of the arrival stream feeds the
// balanced layout's load profile under churn, mirroring the dispatch
// layer's own sample cap. The default profile samples the instance's full
// worker set with a fixed stride — an oracle over arrivals that haven't
// happened yet, which under churn skews the layout toward late traffic
// while the late-posted tasks it anticipates don't exist at layout time.
// The prefix is causally sound: it is exactly what an operator could have
// observed before the stream ran.
const churnLoadSamplePrefix = 4096

// ReplayChurn drives a churn workload sequentially through a fresh
// Platform: workers check in one by one, and each lifecycle event fires
// once its arrival tick is reached — posts must come back with the plan's
// dense IDs, expiries retire tasks whether or not they completed first.
// Events scheduled past the end of the worker stream (a TTL can outlive
// it) fire after the last worker, so every planned expiry lands and the
// report's Completed + Expired always covers the whole task set.
//
// With a balanced layout (WithBalancedShards or WithRebalance) and a plan
// that posts tasks mid-stream, the layout's load profile is the live
// arrival prefix of the worker stream (WithLoadPrefix(churnLoadSamplePrefix))
// instead of the default full-stream sample. An explicit WithLoadPrefix from
// the caller wins; plans with no late posts keep the default profile, so
// existing replays are unchanged.
func ReplayChurn(cw *ChurnWorkload, algo Algorithm, opts ...Option) (*ChurnReport, error) {
	if c := newConfig(opts); c.balanced && c.loadPrefix == 0 && cw.PostedLate() > 0 {
		opts = append(opts[:len(opts):len(opts)], WithLoadPrefix(churnLoadSamplePrefix))
	}
	plat, err := NewPlatform(cw.Instance, algo, opts...)
	if err != nil {
		return nil, err
	}
	// The replay feeds synchronously, but Close also freezes the tile
	// layout when WithRebalance is in play.
	defer plat.Close()
	rep := &ChurnReport{}
	next, pendingPosts := 0, 0
	for _, e := range cw.Events {
		if e.Kind == EventPost {
			pendingPosts++
		}
	}
	fire := func(arrived int) error {
		for next < len(cw.Events) && cw.Events[next].Arrival <= arrived {
			e := cw.Events[next]
			next++
			switch e.Kind {
			case EventPost:
				pendingPosts--
				id, err := plat.PostTask(e.Task)
				if err != nil {
					return err
				}
				if id != e.Task.ID {
					return fmt.Errorf("ltc: posted task got ID %d, churn plan expected %d", id, e.Task.ID)
				}
			case EventRetire:
				if err := plat.RetireTask(e.ID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := fire(0); err != nil {
		return nil, err
	}
	for i, worker := range cw.Instance.Workers {
		// Pending retires alone can't need more workers — the trailing fire
		// below lands them; pending posts can revive a done platform, so
		// keep feeding while any remain.
		if plat.Done() && pendingPosts == 0 {
			break
		}
		if _, err := plat.CheckIn(worker); err != nil && !errors.Is(err, ErrPlatformDone) {
			return nil, err
		}
		rep.WorkersFed = i + 1
		if err := fire(i + 1); err != nil {
			return nil, err
		}
	}
	// Trailing events: expiries scheduled beyond the stream's end.
	if err := fire(int(^uint(0) >> 1)); err != nil {
		return nil, err
	}
	rep.AbsoluteLatency = plat.Latency()
	rep.RelativeLatency = plat.RelativeLatency()
	rep.Statuses = plat.TaskStatuses()
	for _, st := range rep.Statuses {
		if st.Completed {
			rep.Completed++
		} else if st.Retired {
			rep.Expired++
		}
	}
	return rep, nil
}
