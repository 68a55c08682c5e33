package ltc

import (
	"testing"
)

// TestOptionsComposeAndOverride: options apply in order (last wins), and
// every constructor accepts the same Option type, ReplayChurn included.
func TestOptionsComposeAndOverride(t *testing.T) {
	in := tinyInstance(t)
	p, err := NewPlatform(in, AAM, WithShards(8), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 1 {
		t.Fatalf("override: %d shards, want 1", p.Shards())
	}
	// An option leaves the settings it does not mention alone.
	p2, err := NewPlatform(in, AAM, WithShards(2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Shards() != 2 {
		t.Fatalf("unrelated option clobbered the shard count: %d shards, want 2", p2.Shards())
	}

	cc := DefaultChurn(DefaultWorkload().Scale(0.01))
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayChurn(cw, LAF, WithShards(1)); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidation: option values are validated where they land —
// negative shard counts and queue capacities fail construction.
func TestOptionsValidation(t *testing.T) {
	in := tinyInstance(t)
	if _, err := NewPlatform(in, AAM, WithShards(-1)); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := NewPlatform(in, AAM, WithQueueCap(-1)); err == nil {
		t.Fatal("negative queue cap accepted")
	}
	// Session/Solve ignore platform-only options rather than erroring.
	if _, err := NewSession(in, AAM, WithShards(-1), WithQueueCap(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(in, LAF, WithShards(64)); err != nil {
		t.Fatal(err)
	}
}

// TestSolveBatchMultiplierAndExactOptions keeps the solver-tuning options
// reachable through the v2 surface.
func TestSolveBatchMultiplierAndExactOptions(t *testing.T) {
	in := tinyInstance(t)
	res, err := Solve(in, MCFLTC, WithBatchMultiplier(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Arrangement.Validate(in, true); err != nil {
		t.Fatal(err)
	}
	// A hopeless node budget must surface the Exact solver's failure.
	if _, err := Solve(in, Exact, WithExactMaxNodes(1)); err == nil {
		t.Fatal("1-node Exact budget succeeded")
	}
}

// TestEventBufferOption: WithEventBuffer bounds Subscribe's buffer — a
// 1-slot subscriber that never reads drops everything past the first
// event.
func TestEventBufferOption(t *testing.T) {
	in := tinyInstance(t)
	p, err := NewPlatform(in, AAM, WithShards(1), WithEventBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	sub := p.Subscribe()
	defer sub.Close()
	for _, w := range in.Workers {
		if p.Done() {
			break
		}
		if _, err := p.CheckIn(w); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Done() {
		t.Fatal("incomplete")
	}
	// len(in.Tasks) completions + 1 platform-done were published; the
	// unread 1-slot buffer kept the first and dropped the rest.
	if got, want := sub.Dropped(), uint64(len(in.Tasks)); got != want {
		t.Fatalf("dropped %d events, want %d", got, want)
	}
}
