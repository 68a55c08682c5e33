package model

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"ltc/internal/geo"
)

func partitionInstance(nTasks int, seed uint64) *Instance {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	in := &Instance{
		Epsilon: 0.1,
		K:       4,
		Model:   SigmoidDistance{DMax: 30},
		MinAcc:  0.5,
	}
	for t := 0; t < nTasks; t++ {
		in.Tasks = append(in.Tasks, Task{
			ID:  TaskID(t),
			Loc: geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500},
		})
	}
	return in
}

// shardListing returns the shard whose sub-instance lists the given global
// task, or -1 — the test-side oracle for "the shard Locate returns holds the
// task", read off the shards themselves rather than a second accessor.
func shardListing(p *Partition, id TaskID) int {
	for si, sub := range p.Shards {
		if slices.Contains(sub.Global, id) {
			return si
		}
	}
	return -1
}

func TestPartitionCoversEveryTaskOnce(t *testing.T) {
	in := partitionInstance(300, 7)
	for _, n := range []int{1, 2, 4, 7, 16} {
		p, err := PartitionInstance(in, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() < 1 || p.NumShards() > n {
			t.Fatalf("n=%d: got %d shards", n, p.NumShards())
		}
		seen := make([]int, len(in.Tasks))
		for si, sub := range p.Shards {
			if len(sub.In.Tasks) == 0 {
				t.Fatalf("n=%d: shard %d empty", n, si)
			}
			if len(sub.In.Tasks) != len(sub.Global) {
				t.Fatalf("n=%d shard %d: mapping length mismatch", n, si)
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
			// Local order must follow ascending global ID (stable IDs).
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
	}
}

func TestPartitionSingleShardIsIdentity(t *testing.T) {
	in := partitionInstance(50, 3)
	p, err := PartitionInstance(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 1 {
		t.Fatalf("shards = %d", p.NumShards())
	}
	sub := p.Shards[0]
	for i := range in.Tasks {
		if sub.Global[i] != TaskID(i) || sub.In.Tasks[i].Loc != in.Tasks[i].Loc {
			t.Fatalf("identity mapping broken at %d", i)
		}
	}
}

func TestPartitionLocateRoutesToOwningShard(t *testing.T) {
	in := partitionInstance(200, 11)
	p, err := PartitionInstance(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A task's own location must route to the shard holding it.
	for _, task := range in.Tasks {
		if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
			t.Fatalf("task %d at %v routed to shard %d, owned by %d", task.ID, task.Loc, got, want)
		}
	}
	// Arbitrary points (including far outside the task rect) must route to
	// a valid shard.
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		q := geo.Point{X: rng.Float64()*2000 - 500, Y: rng.Float64()*2000 - 500}
		s := p.Locate(q)
		if s < 0 || s >= p.NumShards() {
			t.Fatalf("Locate(%v) = %d out of range", q, s)
		}
	}
}

func TestPartitionDegenerate(t *testing.T) {
	// All tasks at one point: a single usable shard must come out.
	in := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
	for t := 0; t < 5; t++ {
		in.Tasks = append(in.Tasks, Task{ID: TaskID(t), Loc: geo.Point{X: 3, Y: 3}})
	}
	p, err := PartitionInstance(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 1 || len(p.Shards[0].In.Tasks) != 5 {
		t.Fatalf("degenerate partition: %d shards", p.NumShards())
	}
	if p.Locate(geo.Point{X: -100, Y: 40}) != 0 {
		t.Fatal("degenerate Locate broken")
	}
	// More shards than tasks: capped, never empty.
	p, err = PartitionInstance(partitionInstance(3, 1), 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() > 3 {
		t.Fatalf("shards %d > tasks 3", p.NumShards())
	}
}

// TestPartitionRemapsIDSensitiveModels: sub-instances renumber tasks
// locally, so their wrapped model must forward Predict with the *source*
// task — otherwise models keyed on Task.ID (MatrixAccuracy) silently read
// the wrong rows under sharding.
func TestPartitionRemapsIDSensitiveModels(t *testing.T) {
	in := partitionInstance(40, 23)
	vals := make([][]float64, len(in.Tasks))
	for tid := range vals {
		row := make([]float64, 10)
		for wi := range row {
			row[wi] = float64(tid*10+wi) / 1000 // unique per (task, worker)
		}
		vals[tid] = row
	}
	in.Model = MatrixAccuracy{Vals: vals}
	p, err := PartitionInstance(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{Index: 4, Acc: 0.9}
	for si, sub := range p.Shards {
		for local, task := range sub.In.Tasks {
			got := sub.In.Model.Predict(w, task)
			want := in.Model.Predict(w, in.Tasks[sub.Global[local]])
			if got != want {
				t.Fatalf("shard %d local task %d: Predict = %v, want %v (global %d)",
					si, local, got, want, sub.Global[local])
			}
		}
	}
	// A RadiusBounder source must keep its bound through the wrapper.
	in2 := partitionInstance(40, 29)
	p2, err := PartitionInstance(in2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := p2.Shards[0].In.Model.(RadiusBounder)
	if !ok {
		t.Fatal("wrapped SigmoidDistance lost RadiusBounder")
	}
	if got, want := rb.EligibilityRadius(0.5), (SigmoidDistance{DMax: 30}).EligibilityRadius(0.5); got != want {
		t.Fatalf("radius %v, want %v", got, want)
	}
	// A non-bounding source must NOT grow a radius through the wrapper.
	in3 := partitionInstance(10, 31)
	in3.Model = ConstantAccuracy{P: 0.9}
	p3, err := PartitionInstance(in3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p3.Shards[0].In.Model.(RadiusBounder); ok {
		t.Fatal("wrapped ConstantAccuracy gained RadiusBounder")
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	in := partitionInstance(10, 1)
	if _, err := PartitionInstance(in, 0); !errors.Is(err, ErrBadShardCount) {
		t.Fatalf("err = %v, want ErrBadShardCount", err)
	}
	if _, err := PartitionInstance(&Instance{}, 2); !errors.Is(err, ErrNoTasks) {
		t.Fatalf("err = %v, want ErrNoTasks", err)
	}
}

// TestPartitionLocateConcurrent hammers the routing table from many
// goroutines; run under -race it proves Partition is read-only after
// construction.
func TestPartitionLocateConcurrent(t *testing.T) {
	in := partitionInstance(400, 17)
	p, err := PartitionInstance(in, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < 5000; i++ {
				q := geo.Point{X: rng.Float64() * 600, Y: rng.Float64() * 600}
				if s := p.Locate(q); s < 0 || s >= p.NumShards() {
					t.Errorf("goroutine %d: Locate out of range: %d", g, s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzPartitionOwnerTable exposes the one routing structure to go fuzz: for
// arbitrary task sets (two bytes per task, a 256×256 lattice), shard counts
// and both layouts, tile → owner tile → shard must be total and consistent —
// every tile has an in-range shard, an owner tile owns itself and routes its
// satellites with it, the three lookups agree at every lattice point, and a
// task's own location routes to the shard listing it.
func FuzzPartitionOwnerTable(f *testing.F) {
	f.Add([]byte{0, 0, 255, 0, 0, 255, 255, 255}, uint8(16), false) // one task per corner: every interior tile is task-free
	f.Add([]byte{0, 0, 255, 0, 0, 255, 255, 255}, uint8(4), true)
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint8(3), true)                                    // one point: layouts collapse to one shard
	f.Add([]byte{0, 9, 40, 9, 80, 9, 120, 9, 160, 9, 200, 9, 240, 9}, uint8(5), false) // a line: zero-height rect
	f.Add([]byte{3, 200, 10, 190, 250, 5, 240, 12, 128, 128, 20, 20, 22, 18, 90, 160}, uint8(6), true)
	f.Fuzz(func(t *testing.T, coords []byte, rawShards uint8, balanced bool) {
		in := &Instance{Epsilon: 0.1, K: 2, Model: ConstantAccuracy{P: 0.9}}
		for i := 0; i+1 < len(coords) && len(in.Tasks) < 64; i += 2 {
			in.Tasks = append(in.Tasks, Task{ID: TaskID(len(in.Tasks)), Loc: geo.Point{X: float64(coords[i]), Y: float64(coords[i+1])}})
		}
		if len(in.Tasks) == 0 {
			t.Skip()
		}
		n := int(rawShards)%24 + 1
		p, err := PartitionInstanceOpts(in, n, PartitionOptions{Balanced: balanced})
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() < 1 || p.NumShards() > min(n, len(in.Tasks)) {
			t.Fatalf("%d shards for %d requested over %d tasks", p.NumShards(), n, len(in.Tasks))
		}
		owners := p.OwnerTiles()
		if !p.Balanced && len(owners) != p.NumShards() {
			t.Fatalf("striped layout: %d owner tiles for %d shards", len(owners), p.NumShards())
		}
		for c := 0; c < p.NumTiles(); c++ {
			if s := p.TileShard(c); s < 0 || s >= p.NumShards() {
				t.Fatalf("tile %d has shard %d outside [0,%d)", c, s, p.NumShards())
			}
		}
		for x := -16.0; x <= 272; x += 8 {
			for y := -16.0; y <= 272; y += 8 {
				q := geo.Point{X: x, Y: y}
				s, o := p.LocateOwner(q)
				if s != p.Locate(q) || o != p.OwnerTile(q) {
					t.Fatalf("LocateOwner(%v) = (%d,%d), Locate %d, OwnerTile %d", q, s, o, p.Locate(q), p.OwnerTile(q))
				}
				if !slices.Contains(owners, o) || p.TileShard(o) != s {
					t.Fatalf("%v: owner tile %d (an owner: %v) routes to shard %d, the point to %d",
						q, o, slices.Contains(owners, o), p.TileShard(o), s)
				}
			}
		}
		for _, task := range in.Tasks {
			if got, want := p.Locate(task.Loc), shardListing(p, task.ID); got != want {
				t.Fatalf("task %d at %v routes to shard %d, listed by %d", task.ID, task.Loc, got, want)
			}
		}
	})
}
