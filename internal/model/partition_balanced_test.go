package model

import (
	"math/rand/v2"
	"testing"

	"ltc/internal/geo"
)

// skewedSample draws a load profile with 70% of the mass inside one small
// hot disc and the rest uniform — the hotspot regime the balanced pack is
// for.
func skewedSample(n int, seed uint64) []geo.Point {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	pts := make([]geo.Point, n)
	for i := range pts {
		if rng.Float64() < 0.7 {
			pts[i] = geo.Point{X: 120 + rng.Float64()*40, Y: 300 + rng.Float64()*40}
		} else {
			pts[i] = geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		}
	}
	return pts
}

func TestBalancedPartitionInvariants(t *testing.T) {
	in := partitionInstance(300, 7)
	sample := skewedSample(4000, 9)
	for _, n := range []int{2, 4, 8, 16} {
		p, err := PartitionInstanceOpts(in, n, PartitionOptions{Balanced: true, LoadSample: sample})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Balanced {
			t.Fatalf("n=%d: Balanced flag not set", n)
		}
		if p.NumShards() < 1 || p.NumShards() > n {
			t.Fatalf("n=%d: got %d shards", n, p.NumShards())
		}
		// Every task appears exactly once, local order ascending in global
		// ID, parameters inherited — the striped invariants, balanced mode.
		seen := make([]int, len(in.Tasks))
		for si, sub := range p.Shards {
			if len(sub.In.Tasks) == 0 {
				t.Fatalf("n=%d: shard %d empty", n, si)
			}
			for local, task := range sub.In.Tasks {
				if int(task.ID) != local {
					t.Fatalf("n=%d shard %d: local IDs not consecutive", n, si)
				}
				gid := sub.Global[local]
				seen[gid]++
				if task.Loc != in.Tasks[gid].Loc {
					t.Fatalf("n=%d shard %d: task %d location drifted", n, si, gid)
				}
				if got := p.Locate(task.Loc); got != si {
					t.Fatalf("n=%d: task %d is listed by shard %d but its location routes to %d", n, gid, si, got)
				}
			}
			for i := 1; i < len(sub.Global); i++ {
				if sub.Global[i] <= sub.Global[i-1] {
					t.Fatalf("n=%d shard %d: global IDs not ascending", n, si)
				}
			}
			if sub.In.Epsilon != in.Epsilon || sub.In.K != in.K || sub.In.MinAcc != in.MinAcc {
				t.Fatalf("n=%d shard %d: parameters not inherited", n, si)
			}
		}
		for gid, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: task %d appears %d times", n, gid, c)
			}
		}
		// Shards are ordered by their smallest global TaskID.
		for si := 1; si < p.NumShards(); si++ {
			if p.Shards[si].Global[0] <= p.Shards[si-1].Global[0] {
				t.Fatalf("n=%d: shard order not ascending in min global ID", n)
			}
		}
		// A task's location routes to the shard owning it, and arbitrary
		// points route in range.
		for _, task := range in.Tasks {
			if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
				t.Fatalf("n=%d: task %d routed to %d, owned by %d", n, task.ID, got, want)
			}
		}
		rng := rand.New(rand.NewPCG(5, 6))
		for i := 0; i < 2000; i++ {
			q := geo.Point{X: rng.Float64()*2000 - 500, Y: rng.Float64()*2000 - 500}
			if s := p.Locate(q); s < 0 || s >= p.NumShards() {
				t.Fatalf("n=%d: Locate(%v) = %d out of range", n, q, s)
			}
		}
	}
}

// The whole point of the balanced pack: under a hotspot load profile the
// busiest shard must carry far less of the sampled traffic than under
// fixed striping.
func TestBalancedPartitionSplitsHotspot(t *testing.T) {
	// Tasks follow the same 70/30 hot-disc mixture as the traffic (the
	// hotspot scenario's regime: demand concentrates where workers do), so
	// the hot tiles hold tasks and are splittable units for the pack.
	in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	for i, pt := range skewedSample(300, 7) {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(i), Loc: pt})
	}
	sample := skewedSample(6000, 13)
	const n = 8
	maxShare := func(p *Partition) float64 {
		counts := make([]int, p.NumShards())
		for _, pt := range sample {
			counts[p.Locate(pt)]++
		}
		m := 0
		for _, c := range counts {
			if c > m {
				m = c
			}
		}
		return float64(m) * float64(p.NumShards()) / float64(len(sample))
	}
	striped, err := PartitionInstance(in, n)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := PartitionInstanceOpts(in, n, PartitionOptions{Balanced: true, LoadSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	if striped.NumShards() != balanced.NumShards() {
		t.Logf("shard counts differ: striped %d, balanced %d", striped.NumShards(), balanced.NumShards())
	}
	s, b := maxShare(striped), maxShare(balanced)
	t.Logf("max shard share of sampled load (1.0 = perfect): striped %.2f, balanced %.2f", s, b)
	if b > 2 {
		t.Fatalf("balanced pack leaves max/mean load at %.2f, want ≤ 2", b)
	}
	if b > s*0.6 {
		t.Fatalf("balanced max share %.2f not well below striped %.2f", b, s)
	}
}

func TestBalancedPartitionWithoutSampleUsesTasks(t *testing.T) {
	// Tasks clustered 70/30 across two blobs; with no sample the pack
	// balances task counts across shards.
	in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
	rng := rand.New(rand.NewPCG(21, 43))
	for t := 0; t < 200; t++ {
		loc := geo.Point{X: 50 + rng.Float64()*30, Y: 50 + rng.Float64()*30}
		if t%10 >= 7 {
			loc = geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		}
		in.Tasks = append(in.Tasks, Task{ID: TaskID(t), Loc: loc})
	}
	p, err := PartitionInstanceOpts(in, 4, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	maxTasks := 0
	for _, sub := range p.Shards {
		if len(sub.In.Tasks) > maxTasks {
			maxTasks = len(sub.In.Tasks)
		}
	}
	fair := len(in.Tasks) / p.NumShards()
	if maxTasks > 2*fair {
		t.Fatalf("largest shard holds %d tasks, fair share %d", maxTasks, fair)
	}
}

func TestBalancedPartitionSingleShardKeepsSourceOrder(t *testing.T) {
	in := partitionInstance(50, 3)
	p, err := PartitionInstanceOpts(in, 1, PartitionOptions{Balanced: true, LoadSample: skewedSample(500, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Balanced {
		t.Fatal("n=1 must keep the striped (identity) layout")
	}
	if p.NumShards() != 1 {
		t.Fatalf("shards = %d", p.NumShards())
	}
	for i := range in.Tasks {
		if p.Shards[0].Global[i] != TaskID(i) {
			t.Fatalf("identity mapping broken at %d", i)
		}
	}
}

func TestBalancedPartitionDegenerate(t *testing.T) {
	// All tasks at one point: one usable shard, Locate total.
	in := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 5; t++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: 3, Y: 3}})
	}
	p, err := PartitionInstanceOpts(in, 4, PartitionOptions{Balanced: true, LoadSample: skewedSample(100, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 1 || len(p.Shards[0].In.Tasks) != 5 {
		t.Fatalf("degenerate balanced partition: %d shards", p.NumShards())
	}
	if p.Balanced {
		t.Fatal("a pack collapsed to one shard must report Balanced = false (the layouts coincide)")
	}
	if p.Locate(geo.Point{X: -100, Y: 40}) != 0 {
		t.Fatal("degenerate Locate broken")
	}
	// A near-line rect (extreme aspect ratio, nonzero extent) must not blow
	// the fine tiling up into millions of cells — construction stays fast
	// and routing total.
	sliver := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 64; t++ {
		sliver.Tasks = append(sliver.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: float64(t) * 1e4, Y: float64(t) * 1e-7}})
	}
	p, err = PartitionInstanceOpts(sliver, 16, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range sliver.Tasks {
		if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
			t.Fatalf("sliver task %d routed to %d, owned by %d", task.ID, got, want)
		}
	}
	// And the tall counterpart.
	tall := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 64; t++ {
		tall.Tasks = append(tall.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: float64(t) * 1e-7, Y: float64(t) * 1e4}})
	}
	p, err = PartitionInstanceOpts(tall, 16, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tall.Tasks {
		if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
			t.Fatalf("tall task %d routed to %d, owned by %d", task.ID, got, want)
		}
	}
	// Tasks on a vertical line (zero-width rect): tiling degrades to one
	// column and the pack still balances down the line.
	line := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 64; t++ {
		line.Tasks = append(line.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: 10, Y: float64(t)}})
	}
	p, err = PartitionInstanceOpts(line, 4, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() < 2 {
		t.Fatalf("line partition collapsed to %d shards", p.NumShards())
	}
	for _, task := range line.Tasks {
		if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
			t.Fatalf("line task %d routed to %d, owned by %d", task.ID, got, want)
		}
	}
	// Horizontal line too (zero-height rect).
	hline := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 64; t++ {
		hline.Tasks = append(hline.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: float64(t), Y: 10}})
	}
	p, err = PartitionInstanceOpts(hline, 4, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() < 2 {
		t.Fatalf("hline partition collapsed to %d shards", p.NumShards())
	}
	// More shards than task tiles: capped, never empty.
	p, err = PartitionInstanceOpts(partitionInstance(3, 1), 64, PartitionOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() > 3 {
		t.Fatalf("shards %d > tasks 3", p.NumShards())
	}
	// Bad input passes through the same validation as striping.
	if _, err := PartitionInstanceOpts(in, 0, PartitionOptions{Balanced: true}); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := PartitionInstanceOpts(&Instance{}, 2, PartitionOptions{Balanced: true}); err == nil {
		t.Fatal("empty instance accepted")
	}
}

func TestBalancedPartitionDeterministic(t *testing.T) {
	in := partitionInstance(300, 7)
	sample := skewedSample(2000, 3)
	a, err := PartitionInstanceOpts(in, 8, PartitionOptions{Balanced: true, LoadSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionInstanceOpts(in, 8, PartitionOptions{Balanced: true, LoadSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumShards() != b.NumShards() {
		t.Fatalf("shard counts differ: %d vs %d", a.NumShards(), b.NumShards())
	}
	for si := range a.Shards {
		ga, gb := a.Shards[si].Global, b.Shards[si].Global
		if len(ga) != len(gb) {
			t.Fatalf("shard %d sizes differ", si)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("shard %d task %d differs: %d vs %d", si, i, ga[i], gb[i])
			}
		}
	}
}
