package events

import (
	"errors"
	"fmt"
)

// StreamMerger folds N per-node event sequences into one global, gapless
// cluster sequence. Each node's bus already stamps its events with a dense
// per-node Seq (1, 2, 3, …); the merger verifies that density as events
// arrive and assigns every accepted event the next cluster sequence number,
// so the merged stream is itself dense (cluster Seq 1..M with no gaps).
//
// The fold is deterministic in the sense the cluster audit needs: the
// cluster Seq assigned to an event is a pure function of the interleaving
// in which the caller presents events, per-node order is enforced (an
// out-of-order or missing per-node Seq is an error, never a silent skip),
// and therefore any per-task fold of the merged stream — the exactly-once
// completion audit, a per-node event count, a replayed state machine — is
// independent of the cross-node interleaving. Duplicates from a resumed
// per-node subscription (a reconnect replaying from its last delivered
// Seq) are detected and rejected distinctly from gaps, so reconnect logic
// can drop them without weakening gap detection.
//
// A StreamMerger is not safe for concurrent use; the cluster client feeds
// it from its single stream-demultiplexing goroutine.
type StreamMerger struct {
	next []uint64 // next[n] is the per-node Seq node n must present next
	seq  uint64   // last assigned cluster sequence number
}

// Merge-fold errors, distinguishable with errors.Is.
var (
	// ErrSeqGap reports a hole in a node's sequence: at least one event was
	// lost between the last delivered and the presented one.
	ErrSeqGap = errors.New("events: per-node sequence gap")
	// ErrSeqDuplicate reports an event at or below the node's last
	// delivered sequence number — a resume replaying already-folded events.
	ErrSeqDuplicate = errors.New("events: per-node sequence already folded")
)

// NewStreamMerger returns a merger over the given node count. nodes < 1 is
// raised to 1 (a degenerate single-stream merge).
func NewStreamMerger(nodes int) *StreamMerger {
	if nodes < 1 {
		nodes = 1
	}
	return &StreamMerger{next: make([]uint64, nodes)}
}

// Fold accepts node's event with per-node sequence number nodeSeq and
// returns its cluster sequence number. nodeSeq must be exactly one past the
// node's last folded value: lower values return ErrSeqDuplicate (and fold
// nothing), higher values ErrSeqGap.
func (m *StreamMerger) Fold(node int, nodeSeq uint64) (uint64, error) {
	if node < 0 || node >= len(m.next) {
		return 0, fmt.Errorf("events: node %d outside the merged set [0,%d)", node, len(m.next))
	}
	switch want := m.next[node] + 1; {
	case nodeSeq < want:
		return 0, fmt.Errorf("%w: node %d seq %d already delivered (at %d)", ErrSeqDuplicate, node, nodeSeq, m.next[node])
	case nodeSeq > want:
		return 0, fmt.Errorf("%w: node %d jumped from %d to %d", ErrSeqGap, node, m.next[node], nodeSeq)
	}
	m.next[node] = nodeSeq
	m.seq++
	return m.seq, nil
}

// Delivered returns node's last folded per-node sequence number — the
// resume point a reconnecting subscription replays from (`?since=` on the
// wire). Nodes outside the merged set report 0.
func (m *StreamMerger) Delivered(node int) uint64 {
	if node < 0 || node >= len(m.next) {
		return 0
	}
	return m.next[node]
}
