package model

import (
	"math"
	"slices"
	"testing"

	"ltc/internal/geo"
)

// sameCell reports whether two cells list the same ids at the same
// coordinates and hold the same box, bit for bit.
func sameCell(a, b cell) bool {
	bits := func(p, q geo.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	}
	return slices.Equal(a.ids, b.ids) && slices.EqualFunc(a.pts, b.pts, bits) && bits(a.lo, b.lo) && bits(a.hi, b.hi)
}

// checkGrid fails unless every cell of g equals the reference cell.
func checkGrid(t *testing.T, what string, g *cellGrid, ref []cell) {
	t.Helper()
	if len(g.cells) != len(ref) {
		t.Fatalf("%s: %d cells, reference %d", what, len(g.cells), len(ref))
	}
	for i := range ref {
		if !sameCell(g.cells[i], ref[i]) {
			t.Fatalf("%s: cell %d = %+v, reference %+v", what, i, g.cells[i], ref[i])
		}
	}
}

// FuzzCellGridBuild checks the carved candidate grid against a reference
// grid built by appending one task at a time. coords are task locations on
// a 7.5-unit lattice against 30-unit cells, so duplicate locations and
// points on cell borders are the rule; script is a run of Insert (b%3 = 0),
// Remove (1) and probe (2) steps. After the build, after a Clone and after
// every step, each cell must equal the reference cell and Candidates must
// equal brute force. The reference receives the same steps, so an Insert
// into a full carved cell — every non-empty cell is full after the build —
// that wrote into a neighbour's block would show as a neighbour mismatch.
func FuzzCellGridBuild(f *testing.F) {
	f.Add([]byte{1, 1, 5, 9, 5, 9, 4, 4, 8, 0, 30, 30}, []byte{0, 3, 6, 1, 2, 12, 4, 5})
	f.Add([]byte{0, 7, 4, 7, 8, 7, 12, 7, 39, 7, 20, 7}, []byte{0, 0, 0, 1, 4, 7, 2, 3})             // a line: zero-height rect
	f.Add([]byte{17, 23}, []byte{0, 1, 3, 4, 2})                                                     // a single task
	f.Add([]byte{6, 6, 6, 6, 6, 6, 6, 6}, []byte{0, 1, 1, 0, 2})                                     // one location four times
	f.Add([]byte{0, 0, 4, 0, 0, 4, 4, 4, 8, 8, 2, 2}, []byte{24, 27, 30, 33, 36, 1, 4, 7, 10, 2, 5}) // borders at 30 and 60
	f.Fuzz(func(t *testing.T, coords, script []byte) {
		const lattice = 7.5
		in := &Instance{Epsilon: 0.1, K: 4, Model: SigmoidDistance{DMax: 30}, MinAcc: 0.5}
		for i := 0; i+1 < len(coords) && len(in.Tasks) < 64; i += 2 {
			loc := geo.Point{X: float64(coords[i]%40) * lattice, Y: float64(coords[i+1]%40) * lattice}
			in.Tasks = append(in.Tasks, Task{ID: TaskID(len(in.Tasks)), Loc: loc})
		}
		if len(in.Tasks) == 0 {
			t.Skip()
		}
		if len(script) > 128 {
			script = script[:128]
		}
		ci := NewCandidateIndex(in)
		g := ci.grid
		ref := make([]cell, g.NumTiles())
		for i, tk := range in.Tasks {
			ref[g.Index(tk.Loc)].add(int32(i), tk.Loc)
		}
		checkGrid(t, "build", g, ref)
		checkGrid(t, "clone", ci.Clone().grid, ref)
		for i, c := range g.cells {
			if cap(c.ids) != len(c.ids) || cap(c.pts) != len(c.pts) {
				t.Fatalf("cell %d: capacity not clipped to its %d entries", i, len(c.ids))
			}
		}

		tasks := append([]Task(nil), in.Tasks...)
		live := make([]bool, len(tasks))
		for i := range live {
			live[i] = true
		}
		probe := Worker{Index: 1, Acc: 0.9}
		for step, b := range script {
			switch b % 3 {
			case 0: // insert, possibly outside the built rect (clamped to a border cell)
				nt := Task{ID: TaskID(len(tasks)), Loc: geo.Point{
					X: float64(int(b/3)%48)*lattice - 45, Y: float64((int(b)*7+step)%48)*lattice - 45}}
				if err := ci.Insert(nt); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				ref[g.Index(nt.Loc)].add(int32(nt.ID), nt.Loc)
				tasks, live = append(tasks, nt), append(live, true)
			case 1:
				if id := TaskID(int(b) % len(tasks)); live[id] {
					if err := ci.Remove(id); err != nil {
						t.Fatalf("Remove: %v", err)
					}
					ref[g.Index(tasks[id].Loc)].remove(int32(id))
					live[id] = false
				}
			default:
				probe.Loc = geo.Point{X: float64(b%40) * lattice, Y: float64((b/40)%40) * lattice}
			}
			checkGrid(t, "after step", g, ref)
			checkAgainstBrute(t, ci, in, tasks, live, []Worker{probe})
		}
	})
}
