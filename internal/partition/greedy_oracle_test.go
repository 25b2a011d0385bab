package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sllt/internal/geom"
)

// assignGreedyRepairOracle is the reference the incremental repair replays:
// nearest assignment by exhaustive scan, then, before every overflow move,
// a rescan of all points against all centers for each member's cheapest
// open alternative and a sort of the candidates by regret. assignGreedyRepair
// must return exactly its assignment, tied regrets included.
func assignGreedyRepairOracle(pts []geom.Point, centers []geom.Point, cap int) []int {
	n, k := len(pts), len(centers)
	assign := make([]int, n)
	load := make([]int, k)
	for i, p := range pts {
		best, bd := 0, math.Inf(1)
		for j, c := range centers {
			if d := p.Dist(c); d < bd {
				best, bd = j, d
			}
		}
		assign[i] = best
		load[best]++
	}
	for j := 0; j < k; j++ {
		for load[j] > cap {
			// Members of j, ordered by regret ascending.
			type cand struct {
				idx    int
				regret float64
				to     int
			}
			var cands []cand
			for i, p := range pts {
				if assign[i] != j {
					continue
				}
				// Cheapest alternative with slack.
				bestTo, bd := -1, math.Inf(1)
				for jj, c := range centers {
					if jj == j || load[jj] >= cap {
						continue
					}
					if d := p.Dist(c); d < bd {
						bestTo, bd = jj, d
					}
				}
				if bestTo >= 0 {
					cands = append(cands, cand{i, bd - p.Dist(centers[j]), bestTo})
				}
			}
			if len(cands) == 0 {
				break // nowhere to move; give up on strict balance
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].regret < cands[b].regret })
			move := cands[0]
			assign[move.idx] = move.to
			load[j]--
			load[move.to]++
		}
	}
	return assign
}

// greedyCase is one repair instance for the oracle comparison.
type greedyCase struct {
	name    string
	pts     []geom.Point
	centers []geom.Point
	cap     int
}

func uniformPts(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func greedyOracleCases(t *testing.T) []greedyCase {
	rng := rand.New(rand.NewSource(130))
	var cases []greedyCase
	for trial := 0; trial < 6; trial++ {
		n, k := 300+rng.Intn(900), 10+rng.Intn(30)
		pts := uniformPts(rng, n, 500, 400)
		centers, _ := KMeans(pts, k, 10, int64(trial))
		cases = append(cases,
			greedyCase{fmt.Sprintf("float/%d", trial), pts, centers, ceilDiv(n, len(centers))},
			greedyCase{fmt.Sprintf("float-slack/%d", trial), pts, centers, ceilDiv(n, len(centers)) + 1 + trial%3})
	}
	for trial := 0; trial < 8; trial++ {
		// Integer site-grid coordinates and snapped centers: regrets tie
		// often, and with ~40 members per cluster the overflowing ones hand
		// sort.Slice more than 12 candidates, past its insertion-sort path.
		n, k := 800+rng.Intn(800), 16+rng.Intn(8)
		pts := sitePts(rng, n, 300, 40)
		centers, _ := KMeans(pts, k, 10, int64(trial))
		cases = append(cases, greedyCase{fmt.Sprintf("sitegrid/%d", trial), pts, snapToSites(centers), ceilDiv(n, len(centers))})
	}
	for trial := 0; trial < 4; trial++ {
		// Centers stacked in triples between singles: equal distances to
		// distinct centers, resolved toward the lower index.
		n, k := 400+rng.Intn(400), 12
		pts := sitePts(rng, n, 200, 30)
		centers := snapToSites(uniformPts(rng, k, 40, 42))
		for j := range centers {
			if j%4 == 1 || j%4 == 2 {
				centers[j] = centers[j-j%4]
			}
		}
		cases = append(cases, greedyCase{fmt.Sprintf("coincident/%d", trial), pts, centers, ceilDiv(n, k)})
	}
	for trial := 0; trial < 4; trial++ {
		// cap·k < n with no rounding up: every center fills and the last
		// overflowing clusters find no open alternative at all.
		n, k := 200+rng.Intn(300), 6+rng.Intn(6)
		pts := sitePts(rng, n, 120, 20)
		centers, _ := KMeans(pts, k, 10, int64(trial))
		cases = append(cases, greedyCase{fmt.Sprintf("tight/%d", trial), pts, snapToSites(centers), n/len(centers) - 1 - trial})
	}
	for trial := 0; trial < 4; trial++ {
		// BalancedAssignK's rounding: an infeasible cap becomes ⌈n/k⌉, and
		// n not a multiple of k leaves less than one free slot per center.
		n, k := 1000+rng.Intn(1000), 20+rng.Intn(20)
		if n%k == 0 {
			n++
		}
		pts := uniformPts(rng, n, 300, 300)
		centers := uniformPts(rng, k, 300, 300)
		cases = append(cases, greedyCase{fmt.Sprintf("rounding/%d", trial), pts, centers, ceilDiv(n, k)})
	}
	cases = append(cases,
		greedyCase{"k=1", sitePts(rng, 50, 20, 5), []geom.Point{geom.Pt(1, 1)}, 50},
		greedyCase{"k=1-overflow", sitePts(rng, 50, 20, 5), []geom.Point{geom.Pt(1, 1)}, 30},
		greedyCase{"empty", nil, []geom.Point{geom.Pt(1, 1), geom.Pt(4, 2)}, 1})
	if !testing.Short() {
		// A scale-shaped level: ~32 points per cluster on a site grid.
		const n, k = 6000, 188
		pts := sitePts(rng, n, 3000, 300)
		centers, _ := KMeans(pts, k, 5, 1)
		cases = append(cases, greedyCase{"scale", pts, snapToSites(centers), ceilDiv(n, len(centers))})
	}
	return cases
}

// assertGreedyMatchesOracle runs both repairs and fails on any difference.
func assertGreedyMatchesOracle(t *testing.T, pts, centers []geom.Point, cap int) {
	t.Helper()
	got := assignGreedyRepair(pts, centers, cap)
	want := assignGreedyRepairOracle(pts, centers, cap)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d k=%d cap=%d: point %d assigned to %d, oracle %d", len(pts), len(centers), cap, i, got[i], want[i])
		}
	}
}

// TestAssignGreedyMatchesOracle: the incremental repair must reproduce the
// full rescan exactly — same assignment, ties included — on random,
// tie-heavy site-grid, coincident-center, over-tight, rounded-cap and
// single-center instances.
func TestAssignGreedyMatchesOracle(t *testing.T) {
	for _, c := range greedyOracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			assertGreedyMatchesOracle(t, c.pts, c.centers, c.cap)
		})
	}
}

// TestAssignGreedyDispatch: above the n·k limit BalancedAssignK runs the
// repair, with an infeasible cap rounded up, and returns the oracle's
// answer at the rounded cap.
func TestAssignGreedyDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n, k = 3001, 100
	pts := sitePts(rng, n, 1200, 100)
	centers, _ := KMeans(pts, k, 5, 2)
	got, method := BalancedAssignK(pts, centers, 1, nil)
	if method != "greedy" {
		t.Fatalf("n·k = %d ran %q, want greedy", n*len(centers), method)
	}
	want := assignGreedyRepairOracle(pts, centers, ceilDiv(n, len(centers)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d assigned to %d, oracle %d", i, got[i], want[i])
		}
	}
}

// TestPickTiedMoveFollowsSortSlice pins why a tied minimum cannot simply go
// to the first tied member: above 12 candidates sort.Slice's head is not
// always the earliest of the equal elements, and the repair must take
// whichever the rescan took.
func TestPickTiedMoveFollowsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	unstable := false
	for trial := 0; trial < 200; trial++ {
		cands := make([]repairCand, 13+rng.Intn(40))
		for x := range cands {
			cands[x] = repairCand{idx: int32(x), to: int32(rng.Intn(4)) - 1, regret: float64(rng.Intn(3))}
		}
		first, tied := pickMove(cands)
		if first < 0 || !tied {
			continue
		}
		got := pickTiedMove(cands)
		if cands[got].regret != cands[first].regret || cands[got].to < 0 {
			t.Fatalf("trial %d: picked %d (regret %g), not a tied minimum (%g)", trial, got, cands[got].regret, cands[first].regret)
		}
		if got != first {
			unstable = true
		}
	}
	if !unstable {
		t.Fatal("no trial put a later tied member at the head of the sort; the fallback is untested")
	}
}

// FuzzAssignGreedy decodes a small instance from the input — header bytes
// pick the sizes, capacity and coordinate mode, the rest are coordinates
// (zero once the input runs out, so short inputs stack points) — and
// requires the repair to match the oracle. Capacities below ⌈n/k⌉ are
// allowed, so the no-alternative break is compared too.
func FuzzAssignGreedy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 0, 0, 1, 1, 2, 2, 3, 3, 9, 9, 0, 0, 8, 8})
	f.Add([]byte{59, 3, 0, 0, 4, 4, 4, 5, 5, 4, 6, 6, 3, 3, 4, 4, 5, 5})
	f.Add([]byte{39, 7, 3, 1, 200, 10, 3, 77, 150, 150, 0, 255, 12, 34, 56, 78, 90, 12, 34})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1])
		}
		n, k, slack, mode := 1+next()%80, 1+next()%8, next()%4, next()%2
		coord := func() float64 {
			if mode == 0 {
				return float64(next() % 16) // integer grid: many exact ties
			}
			return float64(next()<<8|next()) / 97
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(coord(), coord())
		}
		centers := make([]geom.Point, k)
		for j := range centers {
			centers[j] = geom.Pt(coord(), coord())
		}
		assertGreedyMatchesOracle(t, pts, centers, ceilDiv(n, k)-2+slack)
	})
}
