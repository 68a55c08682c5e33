package workload

import (
	"errors"
	"testing"
)

// TestChurnGenerateStructure: the plan must carve the base workload into an
// initial instance plus dense, post-ordered lifecycle events.
func TestChurnGenerateStructure(t *testing.T) {
	cc := DefaultChurn(smallConfig()) // 60 tasks, 800 workers
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if cw.TotalTasks != 60 {
		t.Fatalf("total %d", cw.TotalTasks)
	}
	if cw.InitialTasks != 36 { // ceil(0.6 · 60)
		t.Fatalf("initial %d", cw.InitialTasks)
	}
	if len(cw.Instance.Tasks) != cw.InitialTasks {
		t.Fatalf("instance holds %d tasks", len(cw.Instance.Tasks))
	}
	if got := cw.TotalTasks - cw.InitialTasks; cw.PostedLate() != got {
		t.Fatalf("PostedLate %d, want %d (default rate posts everything after arrival 1)", cw.PostedLate(), got)
	}
	// ≥ 20% late posts: the acceptance regime of the churn experiment.
	if 5*cw.PostedLate() < cw.TotalTasks {
		t.Fatalf("late posts %d below 20%% of %d", cw.PostedLate(), cw.TotalTasks)
	}
	// Events sorted by arrival; posts carry dense IDs in post order.
	nextID := cw.InitialTasks
	lastArrival := 0
	for i, e := range cw.Events {
		if e.Arrival < lastArrival {
			t.Fatalf("event %d out of order: arrival %d after %d", i, e.Arrival, lastArrival)
		}
		lastArrival = e.Arrival
		if e.Kind != EventPost {
			t.Fatalf("event %d: unexpected retire with TTL disabled", i)
		}
		if int(e.Task.ID) != nextID {
			t.Fatalf("event %d: post ID %d, want dense %d", i, e.Task.ID, nextID)
		}
		if e.Arrival < 1 || e.Arrival > len(cw.Instance.Workers) {
			t.Fatalf("event %d: arrival %d outside the worker stream", i, e.Arrival)
		}
		nextID++
	}
	if nextID != cw.TotalTasks {
		t.Fatalf("posted through ID %d, want %d", nextID, cw.TotalTasks)
	}
}

// TestChurnTTLEvents: with a TTL every task (initial and posted) gets a
// retire event exactly TTL arrivals after its post.
func TestChurnTTLEvents(t *testing.T) {
	cc := DefaultChurn(smallConfig())
	cc.TTL = 100
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	postAt := make(map[int]int) // task → post arrival (0 for initial)
	for id := 0; id < cw.InitialTasks; id++ {
		postAt[id] = 0
	}
	retireSeen := make(map[int]int)
	for _, e := range cw.Events {
		switch e.Kind {
		case EventPost:
			postAt[int(e.Task.ID)] = e.Arrival
		case EventRetire:
			retireSeen[int(e.ID)] = e.Arrival
		}
	}
	if len(retireSeen) != cw.TotalTasks {
		t.Fatalf("%d retire events, want one per task (%d)", len(retireSeen), cw.TotalTasks)
	}
	for id, post := range postAt {
		if retireSeen[id] != post+cc.TTL {
			t.Fatalf("task %d posted at %d retires at %d, want %d", id, post, retireSeen[id], post+cc.TTL)
		}
	}
}

// TestChurnDeterministic: same config, same plan.
func TestChurnDeterministic(t *testing.T) {
	cc := DefaultChurn(smallConfig())
	cc.TTL = 50
	a, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestChurnFullInitialIsStatic: InitialFraction = 1 reproduces the base
// instance exactly — the no-churn limit must collapse to the paper's
// static scenario.
func TestChurnFullInitialIsStatic(t *testing.T) {
	cc := DefaultChurn(smallConfig())
	cc.InitialFraction = 1
	cw, err := cc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cw.Events) != 0 {
		t.Fatalf("%d events in the static limit", len(cw.Events))
	}
	base, err := smallConfig().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cw.Instance.Tasks) != len(base.Tasks) || len(cw.Instance.Workers) != len(base.Workers) {
		t.Fatal("static limit diverges from the base instance")
	}
	for i := range base.Tasks {
		if cw.Instance.Tasks[i] != base.Tasks[i] {
			t.Fatalf("task %d differs", i)
		}
	}
}

// TestChurnValidation covers the parameter error paths.
func TestChurnValidation(t *testing.T) {
	for _, mutate := range []func(*ChurnConfig){
		func(c *ChurnConfig) { c.InitialFraction = 0 },
		func(c *ChurnConfig) { c.InitialFraction = 1.5 },
		func(c *ChurnConfig) { c.TTL = -2 },
	} {
		cc := DefaultChurn(smallConfig())
		mutate(&cc)
		if _, err := cc.Generate(); !errors.Is(err, ErrBadChurn) {
			t.Fatalf("bad config accepted: %+v (err %v)", cc, err)
		}
	}
	bad := DefaultChurn(Config{})
	if _, err := bad.Generate(); err == nil {
		t.Fatal("invalid base config accepted")
	}
}
