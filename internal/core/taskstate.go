package core

import (
	"math/bits"

	"ltc/internal/model"
)

// taskState is the one ledger of every LTC algorithm, online and offline:
// the arrangement being built — its pairs and the per-task accumulated Acc*
// credit S[t] (line "S stores accumulated value for each task" of
// Algorithms 1-3) — plus a count of tasks still below δ so allDone is O(1).
// A grant is recorded once, by add; nothing else writes the arrangement.
//
// The state supports the online task lifecycle: adopt extends S with a task
// posted mid-stream (zero credit: its δ-threshold race starts from that
// moment) or migrated in from another ledger (seeded credit), close retires
// a task so it stops counting toward remaining and stops being assignable.
// With no adopts/closes the behaviour is exactly the fixed-task-set
// original.
//
// Layout: the per-task flags live in bitset words rather than []bool, so the
// AAM switching-rule scan (totalNeed) skips 64 settled tasks per word test
// instead of loading a byte per task. zeroNeed encodes need(t) == 0 EXACTLY
// (closed, or S[t] ≥ δ with no epsilon): a clear bit therefore guarantees
// δ − S[t] > 0, which keeps the summation term set — and hence the float
// addition order and results — identical to the dense scan. Tasks inside
// the model.CompletionEps band count as completed but still carry their
// (tiny) residual need, exactly as before.
//
// That scan is AAM's slow branch and the test oracle, not its every-arrival
// cost: needSum is a running Σ_t need(t), moved by the ledger's three
// writers (add, adopt, close) with one floating-point add or subtract each,
// and lgfDominates decides from it alone while it is large enough that the
// scan could not say otherwise. Each write rounds needSum by at most 2⁻⁵²
// of the largest value it has held, which is below |T|·δ, so after u writes
// |needSum − Σ| ≤ (u + |T|)·2⁻⁵²·|T|·δ — the |T| term covers the scan's own
// summation error. lgfDominates runs the scan, and sets needSum to its
// result, whenever needSum is below its threshold or needWrites reaches
// needResync, so u never exceeds needResync.
type taskState struct {
	delta      float64
	needSum    float64
	arr        model.Arrangement
	closed     []uint64 // bitset: task retired via close
	zeroNeed   []uint64 // bitset: need(t) == 0 exactly (closed or S[t] ≥ δ)
	remaining  int
	needWrites int // writes to needSum since it last equalled the scan's sum
}

// needResync caps the writes needSum absorbs between two scans: 2²⁰ writes
// move it by at most 2⁻³² of its peak — under 10⁻⁴·δ with 10⁵ tasks, against
// lgfDominates' margin of k·δ — and one scan per million grants costs
// nothing.
const needResync = 1 << 20

func bitGet(b []uint64, t model.TaskID) bool { return b[t>>6]&(1<<(uint(t)&63)) != 0 }
func bitSet(b []uint64, t model.TaskID)      { b[t>>6] |= 1 << (uint(t) & 63) }
func bitClear(b []uint64, t model.TaskID)    { b[t>>6] &^= 1 << (uint(t) & 63) }

func newTaskState(numTasks int, delta float64) *taskState {
	words := (numTasks + 63) / 64
	return &taskState{
		delta:     delta, // 2·ln(1/ε) > 0: every task starts with need
		arr:       *model.NewArrangement(numTasks),
		closed:    make([]uint64, words),
		zeroNeed:  make([]uint64, words),
		remaining: numTasks,
		needSum:   float64(numTasks) * delta,
	}
}

// adopt extends the state with one task, not closed: a task posted mid-stream
// (zero credit) or one migrated in from another ledger, whose accumulated
// credit seeds the slot. Task IDs are dense: adopting id n is only valid when
// the state currently tracks n tasks. The resulting per-task state is
// bit-identical to what a zero-credit adopt followed by the source's add
// history would have produced: zeroNeed is set exactly when the credit meets
// δ with no epsilon slack, and remaining counts the task only while it is
// below the δ band. The source's pairs stay in the source's arrangement.
func (ts *taskState) adopt(t model.TaskID, credit float64) {
	if int(t) != len(ts.arr.Accumulated) {
		panic("core: task IDs must extend the dense ID space")
	}
	ts.arr.EnsureTasks(int(t) + 1)
	ts.arr.Accumulated[t] = credit
	if int(t)>>6 == len(ts.closed) { // crossed into a fresh word
		ts.closed = append(ts.closed, 0)
		ts.zeroNeed = append(ts.zeroNeed, 0)
	}
	// Bits beyond the dense space are never set, so t's start clear.
	if credit >= ts.delta {
		bitSet(ts.zeroNeed, t)
	}
	if !model.Completed(credit, ts.delta) {
		ts.remaining++
	}
	ts.needSum += ts.need(t)
	ts.needWrites++
}

// close retires task t: it no longer counts toward remaining and done
// reports true for it. It reports whether the task was still open (below δ
// and not already closed) — the caller's signal that an incomplete task was
// expired rather than finished.
func (ts *taskState) close(t model.TaskID) bool {
	if bitGet(ts.closed, t) {
		return false
	}
	open := !model.Completed(ts.arr.Accumulated[t], ts.delta)
	ts.needSum -= ts.need(t)
	ts.needWrites++
	bitSet(ts.closed, t)
	bitSet(ts.zeroNeed, t)
	if open {
		ts.remaining--
	}
	return open
}

// done reports whether task t needs no further work: it reached the quality
// threshold or was retired.
func (ts *taskState) done(t model.TaskID) bool {
	return bitGet(ts.closed, t) || model.Completed(ts.arr.Accumulated[t], ts.delta)
}

// add records the grant of task t to the worker with the given arrival
// index — pair, credit and latency in the arrangement — and reports whether
// this credit completed the task.
func (ts *taskState) add(worker int, t model.TaskID, credit float64) bool {
	was, before := ts.done(t), ts.need(t)
	ts.arr.Add(worker, t, credit)
	ts.needSum -= before - ts.need(t)
	ts.needWrites++
	if ts.arr.Accumulated[t] >= ts.delta {
		bitSet(ts.zeroNeed, t)
	} else if !bitGet(ts.closed, t) {
		bitClear(ts.zeroNeed, t)
	}
	if !was && ts.done(t) {
		ts.remaining--
		return true
	}
	return false
}

// allDone reports whether every live task has reached δ.
func (ts *taskState) allDone() bool { return ts.remaining == 0 }

// need returns max(0, δ − S[t]): the credit task t still needs. Retired
// tasks need nothing.
func (ts *taskState) need(t model.TaskID) float64 {
	if bitGet(ts.closed, t) {
		return 0
	}
	n := ts.delta - ts.arr.Accumulated[t]
	if n < 0 {
		return 0
	}
	return n
}

// lgfDominates is AAM's switching rule: it reports whether the average
// demand Σ_t need(t)/k is at least the largest single need, as totalNeed
// would compute them. No need exceeds δ, so needSum ≥ 2·k·δ settles it with
// a factor of two to spare against needSum's drift (see the type comment)
// and nothing is scanned; otherwise the scan decides, and by then it walks
// the short tail of tasks still open.
func (ts *taskState) lgfDominates(k int) bool {
	if ts.needSum >= 2*float64(k)*ts.delta && ts.needWrites < needResync {
		return true
	}
	sum, maxNeed := ts.totalNeed()
	ts.needSum, ts.needWrites = sum, 0
	return sum/float64(k) >= maxNeed
}

// totalNeed returns Σ_t max(0, δ − S[t]) and the largest single-task need —
// the "average × K" numerator and "maximum" of AAM's switching rule.
// Retired tasks contribute nothing. The scan walks the inverted zeroNeed
// words, so a fully settled stretch of 64 tasks costs one comparison; the
// tasks visited (and so the floating-point accumulation order) are exactly
// the positive-need tasks of the dense scan, in ascending ID order.
func (ts *taskState) totalNeed() (sum, maxNeed float64) {
	s := ts.arr.Accumulated
	n := len(s)
	for wi, w := range ts.zeroNeed {
		inv := ^w
		if hi := n - wi<<6; hi < 64 { // mask off bits beyond the dense space
			inv &= 1<<uint(hi) - 1
		}
		for inv != 0 {
			t := wi<<6 + bits.TrailingZeros64(inv)
			inv &= inv - 1
			if need := ts.delta - s[t]; need > 0 {
				sum += need
				if need > maxNeed {
					maxNeed = need
				}
			}
		}
	}
	return sum, maxNeed
}
