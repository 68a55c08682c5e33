package ltc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// This file is the batched analogue of PR 2's CandidateIndex-vs-brute-force
// property net: for random instances and batch sizes, 1-shard batched and
// async ingestion must reproduce the Session replay exactly — the same
// per-worker assignments, the same arrangement bits, the same latency and
// task statuses.

// randomBatchWorkload draws a small Table IV-shaped workload with random
// cardinalities. Instances need not be completable — equivalence must hold
// for exhausted streams too.
func randomBatchWorkload(rng *rand.Rand) WorkloadConfig {
	cfg := DefaultWorkload()
	cfg.NumTasks = 5 + rng.IntN(60)
	cfg.NumWorkers = 100 + rng.IntN(900)
	cfg.K = 1 + rng.IntN(6)
	cfg.Epsilon = 0.05 + rng.Float64()*0.2
	cfg.GridWidth = 100 + rng.Float64()*200
	cfg.GridHeight = 100 + rng.Float64()*200
	cfg.Seed = rng.Uint64()
	return cfg
}

// checkBatchEquivalence replays one instance four ways — Session, per-call
// 1-shard Platform, CheckInBatch with the given batch size, and
// CheckInAsync+Flush — and requires bitwise agreement on every observable.
func checkBatchEquivalence(t *testing.T, in *Instance, algo Algorithm, seed uint64, batch int) {
	t.Helper()
	sess, err := NewSession(in, algo, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	newPlat := func() *Platform {
		p, err := NewPlatform(in, algo, WithShards(1), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	platCall, platBatch, platAsync := newPlat(), newPlat(), newPlat()

	// Session + per-call platform, in lockstep. Receipts carry the full
	// per-assignment grant (task, credit, completed), so the equivalence
	// check covers the structured v2 surface, not just the task lists.
	var sessOut [][]TaskGrant
	for _, w := range in.Workers {
		if sess.Done() {
			break
		}
		st, err := sess.Arrive(w)
		if err != nil {
			t.Fatal(err)
		}
		sessOut = append(sessOut, append([]TaskGrant(nil), st.Assignments...))
		if _, err := platCall.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}

	// Batched replay: chunks of `batch`, stopping at the truncation signal.
	var batchOut []Receipt
	for i := 0; i < len(in.Workers); i += batch {
		j := i + batch
		if j > len(in.Workers) {
			j = len(in.Workers)
		}
		res, err := platBatch.CheckInBatch(in.Workers[i:j])
		if err != nil && !errors.Is(err, ErrPlatformDone) {
			t.Fatal(err)
		}
		batchOut = append(batchOut, res...)
		if err != nil {
			break
		}
	}
	if len(batchOut) != len(sessOut) {
		t.Fatalf("%s batch=%d: batched fed %d workers, session %d", algo, batch, len(batchOut), len(sessOut))
	}
	for i := range sessOut {
		rec := batchOut[i]
		if rec.Worker != in.Workers[i].Index {
			t.Fatalf("%s batch=%d: receipt %d echoes worker %d, want %d", algo, batch, i, rec.Worker, in.Workers[i].Index)
		}
		if len(rec.Assignments) != len(sessOut[i]) {
			t.Fatalf("%s batch=%d: worker %d assigned %v, session %v", algo, batch, i+1, rec.Assignments, sessOut[i])
		}
		for k := range sessOut[i] {
			if rec.Assignments[k] != sessOut[i][k] {
				t.Fatalf("%s batch=%d: worker %d assigned %v, session %v", algo, batch, i+1, rec.Assignments, sessOut[i])
			}
		}
	}
	if n := len(batchOut); n > 0 && !batchOut[n-1].Done && sess.Done() {
		t.Fatalf("%s batch=%d: final receipt not marked done", algo, batch)
	}

	// Async replay: sequential enqueue, Flush as the completion point.
	for _, w := range in.Workers {
		if platAsync.Done() {
			break
		}
		if err := platAsync.CheckInAsync(w); err != nil {
			t.Fatal(err)
		}
	}
	platAsync.Flush()
	if err := platAsync.Close(); err != nil {
		t.Fatal(err)
	}

	// Final-state agreement: the per-call platform against the Session
	// reference, then batched and async against the per-call platform (which
	// adds the task statuses a Session does not carry).
	label := fmt.Sprintf("%s batch=%d", algo, batch)
	requireSamePlatformState(t, label+" per-call vs session", sess, platCall)
	requireSamePlatformState(t, label+" batched vs per-call", platCall, platBatch)
	requireSamePlatformState(t, label+" async vs per-call", platCall, platAsync)
}

// frontEnd is the final state every check-in front end exposes — Session
// and Platform today; the first shared row of the conformance table.
type frontEnd interface {
	Done() bool
	Latency() int
	Arrangement() *Arrangement
	Credits([]float64) []float64
}

// requireSamePlatformState fails unless got ended in exactly want's state:
// done flag, latency, arrangement pairs and per-task credits bit for bit,
// and — when both sides report them (a Session does not) — task statuses.
func requireSamePlatformState(t *testing.T, label string, want, got frontEnd) {
	t.Helper()
	if got.Done() != want.Done() || got.Latency() != want.Latency() {
		t.Fatalf("%s: done=%v latency=%d, want done=%v latency=%d", label, got.Done(), got.Latency(), want.Done(), want.Latency())
	}
	requireSameSlice(t, label+": arrangement pair", want.Arrangement().Pairs, got.Arrangement().Pairs)
	requireSameSlice(t, label+": credit", want.Credits(nil), got.Credits(nil))
	type statuser interface{ TaskStatuses() []TaskStatus }
	if ws, ok := want.(statuser); ok {
		if gs, ok := got.(statuser); ok {
			requireSameSlice(t, label+": task status", ws.TaskStatuses(), gs.TaskStatuses())
		}
	}
}

// requireSameSlice reports the first position at which got departs from want.
func requireSameSlice[T comparable](t *testing.T, what string, want, got []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestBatchEquivalenceFuzz sweeps random instances, algorithms and batch
// sizes through the equivalence checker.
func TestBatchEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 7))
	algos := []Algorithm{LAF, AAM, RandomAssign}
	for trial := 0; trial < 12; trial++ {
		cfg := randomBatchWorkload(rng)
		in, err := cfg.Generate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		algo := algos[trial%len(algos)]
		batch := 1 + rng.IntN(96)
		seed := rng.Uint64()
		t.Logf("trial %d: %s, %d tasks, %d workers, K=%d, batch=%d",
			trial, algo, len(in.Tasks), len(in.Workers), in.K, batch)
		checkBatchEquivalence(t, in, algo, seed, batch)
	}
}

// FuzzBatchIngestionEquivalence exposes the same property to go fuzz:
// arbitrary generator seeds and batch sizes must never break the
// Session-vs-batched-vs-async equivalence.
func FuzzBatchIngestionEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(42), uint8(7))
	f.Add(uint64(99), uint64(3), uint8(1))
	f.Add(uint64(1234), uint64(77), uint8(255))
	f.Fuzz(func(t *testing.T, genSeed, algoSeed uint64, rawBatch uint8) {
		rng := rand.New(rand.NewPCG(genSeed, genSeed^0x9e3779b9))
		cfg := randomBatchWorkload(rng)
		in, err := cfg.Generate()
		if err != nil {
			t.Skip() // degenerate generator draw
		}
		batch := int(rawBatch)%128 + 1
		algo := []Algorithm{LAF, AAM, RandomAssign}[int(genSeed%3)]
		checkBatchEquivalence(t, in, algo, algoSeed, batch)
	})
}
