package events

import (
	"errors"
	"testing"
)

func TestStreamMergerAssignsDenseClusterSeq(t *testing.T) {
	m := NewStreamMerger(3)
	// An arbitrary interleaving of three dense per-node streams.
	feed := []struct {
		node int
		seq  uint64
	}{
		{0, 1}, {1, 1}, {0, 2}, {2, 1}, {2, 2}, {1, 2}, {0, 3},
	}
	for i, f := range feed {
		got, err := m.Fold(f.node, f.seq)
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
		if got != uint64(i+1) {
			t.Fatalf("fold %d: cluster seq %d, want %d (dense)", i, got, i+1)
		}
	}
	if m.seq != uint64(len(feed)) {
		t.Fatalf("folded %d, want %d", m.seq, len(feed))
	}
	if m.Delivered(0) != 3 || m.Delivered(1) != 2 || m.Delivered(2) != 2 {
		t.Fatalf("resume points: %d/%d/%d", m.Delivered(0), m.Delivered(1), m.Delivered(2))
	}
}

func TestStreamMergerDetectsGapsAndDuplicates(t *testing.T) {
	m := NewStreamMerger(2)
	if _, err := m.Fold(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fold(0, 3); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap: got %v", err)
	}
	if _, err := m.Fold(0, 1); !errors.Is(err, ErrSeqDuplicate) {
		t.Fatalf("duplicate: got %v", err)
	}
	// A rejected fold must not consume a cluster sequence number or move
	// the node's resume point.
	if m.seq != 1 || m.Delivered(0) != 1 {
		t.Fatalf("rejected folds mutated state: folded %d, delivered %d", m.seq, m.Delivered(0))
	}
	// The next in-order event folds normally.
	if seq, err := m.Fold(0, 2); err != nil || seq != 2 {
		t.Fatalf("post-rejection fold: (%d, %v)", seq, err)
	}
}

func TestStreamMergerBounds(t *testing.T) {
	m := NewStreamMerger(0) // raised to 1
	if _, err := m.Fold(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fold(1, 1); err == nil {
		t.Fatal("out-of-range node must fail")
	}
	if _, err := m.Fold(-1, 1); err == nil {
		t.Fatal("negative node must fail")
	}
	if m.Delivered(-1) != 0 || m.Delivered(99) != 0 {
		t.Fatal("out-of-range Delivered must report 0")
	}
}
