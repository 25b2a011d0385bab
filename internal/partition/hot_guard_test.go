package partition

import (
	"testing"

	"sllt/internal/geom"
)

// Guard fixtures: a 16-point set split between two centers, with the
// assignment settled once up front so the guarded calls run steady-state.
var (
	guardPts = func() []geom.Point {
		pts := make([]geom.Point, 0, 16)
		for i := 0; i < 16; i++ {
			pts = append(pts, geom.Pt(float64(i%4)*9+float64(i), float64(i/4)*6))
		}
		return pts
	}()
	guardCenters = []geom.Point{geom.Pt(2, 2), geom.Pt(30, 14)}
	guardAssign  = func() []int {
		assign := make([]int, len(guardPts))
		assignRange(guardPts, guardCenters, assign, 0, len(guardPts), nil)
		return assign
	}()
	guardSum = make([]float64, len(guardCenters))
	guardCnt = make([]int, len(guardCenters))

	// A flow solver part-way through the assignment, so a Dijkstra run
	// meets assigned points, loaded centers and the sink's reverse edges.
	guardMCF = func() *mcfSolver {
		s := newMCFSolver(guardPts, guardCenters, 9)
		for a := 0; a < 10 && s.dijkstra(); a++ {
			s.augment()
		}
		return s
	}()
	// An annealing state over a lopsided split.
	guardSA = func() *saState {
		assign := make([]int, len(guardPts))
		for i := range assign {
			assign[i] = i % 3 / 2
		}
		caps := make([]float64, len(guardPts))
		for i := range caps {
			caps[i] = 1.5
		}
		return newSAState(guardPts, caps, len(guardCenters), assign, DefaultSAOptions(1))
	}()

	// A drained cluster's candidates: one with no open alternative, and
	// two tied at the minimum regret.
	guardRepair = []repairCand{{0, 1, 3}, {1, -1, 0}, {2, 0, 2}, {3, 1, 2}, {4, 0, 5}}

	guardSinkB bool
	guardSinkP geom.Point
	guardSinkF float64
	guardSinkI int
)

// allocFreeGuards pins every // hot: alloc-free kernel in this package at
// zero steady-state allocations, keyed by the kernel's display name. The
// guardcov test in internal/analysis/hotpath checks the map stays in sync
// with the annotations.
var allocFreeGuards = map[string]func(){
	"assignRange": func() {
		guardSinkB = assignRange(guardPts, guardCenters, guardAssign, 0, len(guardPts), nil)
	},
	"farthestPoint": func() {
		guardSinkP = farthestPoint(guardPts, guardAssign, guardCenters)
	},
	"silhouetteOf": func() {
		guardSinkF = silhouetteOf(guardPts, guardAssign, len(guardCenters), 3, guardSum, guardCnt)
	},
	"mcfSolver.dijkstra": func() {
		guardSinkB = guardMCF.dijkstra()
	},
	"pickMove": func() {
		guardSinkI, guardSinkB = pickMove(guardRepair)
	},
	// A move invalidates two clusters' memo entries, so the guards clear
	// one before each call: the recompute path is measured too.
	"saState.Cost": func() {
		guardSA.fresh[0] = false
		guardSinkF = guardSA.Cost()
	},
	"saState.pickCostlyNet": func() {
		guardSA.fresh[1] = false
		guardSinkI = guardSA.pickCostlyNet(0.6)
	},
}

func TestAllocFreeGuards(t *testing.T) {
	for name, fn := range allocFreeGuards {
		fn() // warm up any first-call growth before measuring
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, n)
		}
	}
}
