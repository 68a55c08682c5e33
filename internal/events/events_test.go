package events

import (
	"fmt"
	"sync"
	"testing"

	"ltc/internal/model"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		TaskPosted:    "task_posted",
		TaskRetired:   "task_retired",
		TaskCompleted: "task_completed",
		PlatformDone:  "platform_done",
		TileMigrated:  "tile_migrated",
		Kind(99):      "unknown",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestPublishWithoutSubscribersIsNoop(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("fresh bus active")
	}
	if b.Publish(Event{Kind: TaskCompleted, Task: 1}) {
		t.Fatal("Publish on an idle bus reports a subscriber")
	}
	s := b.Subscribe(4)
	defer s.Close()
	select {
	case e := <-s.Events():
		t.Fatalf("pre-subscription event delivered: %+v", e)
	default:
	}
}

func TestSequencingAndFanout(t *testing.T) {
	b := NewBus()
	a, c := b.Subscribe(8), b.Subscribe(8)
	if !b.Publish(Event{Kind: TaskCompleted, Task: 3, Worker: 12}) {
		t.Fatal("Publish with two subscribers reports none")
	}
	b.Publish(Event{Kind: PlatformDone, Task: -1})
	a.Close()
	c.Close()
	for name, s := range map[string]*Subscription{"a": a, "c": c} {
		var got []Event
		for e := range s.Events() {
			got = append(got, e)
		}
		if len(got) != 2 {
			t.Fatalf("%s: %d events", name, len(got))
		}
		if got[0].Seq != 1 || got[1].Seq != 2 {
			t.Fatalf("%s: seqs %d,%d", name, got[0].Seq, got[1].Seq)
		}
		if got[0].Kind != TaskCompleted || got[0].Task != 3 || got[0].Worker != 12 {
			t.Fatalf("%s: event 0 = %+v", name, got[0])
		}
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus()
	slow := b.Subscribe(1)
	fast := b.Subscribe(16)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: TaskCompleted, Task: model.TaskID(i)})
	}
	if got := slow.Dropped(); got != 9 {
		t.Fatalf("slow dropped %d, want 9", got)
	}
	if got := fast.Dropped(); got != 0 {
		t.Fatalf("fast dropped %d, want 0", got)
	}
	fast.Close()
	n := 0
	for range fast.Events() {
		n++
	}
	if n != 10 {
		t.Fatalf("fast received %d, want 10", n)
	}
	// The slow subscriber still holds the first event; later ones were
	// dropped, so the received sequence has a gap.
	slow.Close()
	e, ok := <-slow.Events()
	if !ok || e.Seq != 1 {
		t.Fatalf("slow first event %+v ok=%v", e, ok)
	}
}

func TestSubscribeBufferFloor(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	defer s.Close()
	b.Publish(Event{Kind: TaskPosted, Task: 7})
	if e := <-s.Events(); e.Task != 7 {
		t.Fatalf("event %+v", e)
	}
}

func TestCloseIsIdempotentAndDetaches(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(2)
	s.Close()
	s.Close()
	if b.Active() {
		t.Fatal("bus active after last unsubscribe")
	}
	b.Publish(Event{Kind: TaskRetired, Task: 1}) // must not panic on closed channel
	if _, ok := <-s.Events(); ok {
		t.Fatal("event delivered after Close")
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	const publishers, each = 4, 200
	sub := b.Subscribe(publishers * each)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish(Event{Kind: TaskCompleted, Task: model.TaskID(p*each + i)})
			}
		}(p)
	}
	churn := make(chan struct{})
	go func() { // subscriber churn concurrent with publishing
		defer close(churn)
		for i := 0; i < 50; i++ {
			s := b.Subscribe(1)
			s.Close()
		}
	}()
	wg.Wait()
	<-churn
	sub.Close()
	seen := make(map[model.TaskID]bool)
	var lastSeq uint64
	for e := range sub.Events() {
		if e.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if seen[e.Task] {
			t.Fatalf("task %d delivered twice", e.Task)
		}
		seen[e.Task] = true
	}
	if len(seen) != publishers*each {
		t.Fatalf("received %d events, want %d", len(seen), publishers*each)
	}
}

// TestSeqGapsEqualDropped is the bus conservation property: under
// concurrent publishers (migration events mixed in) and any buffer size,
// every subscriber's received sequence is strictly increasing and the sum
// of its gaps equals exactly its Dropped() count — no event is ever both
// delivered and counted dropped, and none vanishes uncounted.
func TestSeqGapsEqualDropped(t *testing.T) {
	b := NewBus()
	const publishers, each = 4, 500
	// Subscribers across the contention spectrum: a tiny buffer that drops
	// most events, a mid-size one, and one large enough to keep everything.
	subs := []*Subscription{b.Subscribe(1), b.Subscribe(64), b.Subscribe(publishers * each)}
	drain := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%10 == 0 {
					b.Publish(Event{Kind: TileMigrated, Task: -1, Tile: i, FromShard: p, ToShard: p + 1})
				} else {
					b.Publish(Event{Kind: TaskCompleted, Task: model.TaskID(p*each + i)})
				}
			}
		}(p)
	}
	// A concurrent consumer on the mid-size subscription keeps its buffer
	// draining while publishers race, so its gap pattern is irregular.
	var midGaps, midReceived uint64
	go func() {
		defer close(drain)
		var last uint64
		for e := range subs[1].Events() {
			if e.Seq <= last {
				t.Errorf("mid subscriber seq not increasing: %d after %d", e.Seq, last)
				return
			}
			midGaps += e.Seq - last - 1
			last = e.Seq
			midReceived++
		}
		// Events dropped after the last delivered one: the channel only
		// closes after every publisher finished, so the final bus sequence
		// is exactly the publish count.
		midGaps += uint64(publishers*each) - last
	}()
	wg.Wait()
	for _, s := range subs {
		s.Close()
	}
	<-drain

	total := uint64(publishers * each)
	check := func(name string, received, gaps, dropped uint64) {
		t.Helper()
		if gaps != dropped {
			t.Fatalf("%s: seq gaps %d != dropped %d", name, gaps, dropped)
		}
		if received+dropped != total {
			t.Fatalf("%s: received %d + dropped %d != published %d", name, received, dropped, total)
		}
	}
	for i, name := range []string{"tiny", "", "large"} {
		if name == "" {
			continue // the mid subscriber folded concurrently below
		}
		var received, gaps, last uint64
		for e := range subs[i].Events() {
			if e.Seq <= last {
				t.Fatalf("%s: seq not increasing: %d after %d", name, e.Seq, last)
			}
			gaps += e.Seq - last - 1
			last = e.Seq
			received++
		}
		gaps += total - last // events dropped after the last delivered one
		check(name, received, gaps, subs[i].Dropped())
	}
	check("mid", midReceived, midGaps, subs[1].Dropped())
	if subs[2].Dropped() != 0 {
		t.Fatalf("large subscriber dropped %d", subs[2].Dropped())
	}
}

// TestRecorderIsLossless is the recorder contract under concurrent
// publishers: the recorder gets every event exactly once, gapless and in Seq
// order, while a one-slot subscription beside it drops nearly all of them.
// The recorder appends without a lock of its own, which is safe only because
// Publish calls it under the bus lock, and the race detector checks that.
func TestRecorderIsLossless(t *testing.T) {
	b := NewBus()
	const publishers, each = 4, 500
	var got []Event
	stop := b.Record(func(e Event) { got = append(got, e) })
	tiny := b.Subscribe(1) // never read: keeps one event, drops the rest
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish(Event{Kind: TaskCompleted, Task: model.TaskID(p*each + i)})
			}
		}(p)
	}
	wg.Wait()
	stop()
	tiny.Close()
	if len(got) != publishers*each {
		t.Fatalf("recorder saw %d events, want %d", len(got), publishers*each)
	}
	seen := make(map[model.TaskID]bool)
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("recorder's event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if seen[e.Task] {
			t.Fatalf("task %d recorded twice", e.Task)
		}
		seen[e.Task] = true
	}
	if d := tiny.Dropped(); d != publishers*each-1 {
		t.Fatalf("one-slot subscription dropped %d, want %d", d, publishers*each-1)
	}
}

// TestRecorderStopAndActive: stop detaches only its own recorder and is
// idempotent, and the bus stays active while any recorder is attached —
// also after the last subscription closes.
func TestRecorderStopAndActive(t *testing.T) {
	b := NewBus()
	var first, second []uint64
	stopFirst := b.Record(func(e Event) { first = append(first, e.Seq) })
	stopSecond := b.Record(func(e Event) { second = append(second, e.Seq) })
	s := b.Subscribe(4)
	s.Close()
	if !b.Active() {
		t.Fatal("bus inactive with two recorders attached after the last subscription closed")
	}
	if b.Publish(Event{Kind: TaskPosted, Task: 1}) {
		t.Fatal("Publish with recorders only reports a subscriber")
	}
	stopFirst()
	stopFirst()
	if !b.Active() {
		t.Fatal("bus inactive with a recorder still attached")
	}
	b.Publish(Event{Kind: TaskPosted, Task: 2})
	stopSecond()
	if b.Active() {
		t.Fatal("bus active after every recorder stopped")
	}
	b.Publish(Event{Kind: TaskPosted, Task: 3})
	if fmt.Sprint(first) != "[1]" || fmt.Sprint(second) != "[1 2]" {
		t.Fatalf("recorded seqs %v and %v, want [1] and [1 2]", first, second)
	}
}
