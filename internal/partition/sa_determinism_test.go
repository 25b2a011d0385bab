package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sllt/internal/geom"
)

// TestRefineSASameSeedTwice is the determinism regression for the
// clusterState members rewrite: running the annealer twice on identical
// inputs with the same seed must yield identical assignments. With the old
// map-backed membership, bbox rebuilds and hull/nearest-net scans walked
// the members in map iteration order, so two runs could diverge.
func TestRefineSASameSeedTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := fourBlobs(rng, 40)
	// Perturb a few points toward the middle so refinement has real moves
	// to make, and add duplicate locations to exercise hull tie-breaking.
	for i := 0; i < 8; i++ {
		pts[i*17%len(pts)] = geom.Pt(45+float64(i), 52)
	}
	pts = append(pts, pts[3], pts[50], pts[50])
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1 + float64(i%5)*0.3
	}
	_, assign := KMeans(pts, 4, 30, 1)
	// Deliberately mis-assign some instances so refinement has genuine
	// cost-improving moves to find and accept.
	for i := 0; i < len(assign); i += 9 {
		assign[i] = (assign[i] + 1) % 4
	}

	opt := DefaultSAOptions(12345)
	opt.Iters = 300
	// Tight constraints force violation-driven moves so the hull-pick /
	// nearest-net / bbox-rebuild paths all run.
	opt.MaxFanout = 30
	opt.MaxCap = 40

	run := func() []int {
		in := append([]int(nil), assign...)
		return RefineSA(pts, caps, 4, in, opt)
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at instance %d: %d vs %d", i, a[i], b[i])
		}
	}
	// The refinement must also actually have done something beyond echoing
	// the input (otherwise this test proves nothing about the SA loops).
	moved := 0
	for i := range a {
		if a[i] != assign[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Log("warning: SA made no moves; determinism check is vacuous for the move path")
	}
}

// TestSAMemoMatchesRecompute drives the annealer's move / undo cycle and
// checks after every step that each memoized value — the cost terms, the
// hull and the radius, including those a rejected move's undo reinstated —
// is bit-identical to recomputing it from the current state.
func TestSAMemoMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, k := 600, 24
	pts := fastpathPts(n, rng, false)
	caps := make([]float64, n)
	assign := make([]int, n)
	for i := range pts {
		caps[i] = 1 + float64(i%3)*0.4
		assign[i] = i % k
	}
	opt := DefaultSAOptions(1)
	opt.MaxCap, opt.MaxWL, opt.MaxFanout = 30, 80, 20
	st := newSAState(pts, caps, k, assign, opt)
	bits := math.Float64bits
	for step := 0; step < 3000; step++ {
		i := rng.Intn(n)
		from := st.assign[i]
		if len(st.clusters[from].members) < 2 {
			continue
		}
		to := (from + 1 + rng.Intn(k-1)) % k
		// Fill the memo before the move so the undo has something to put back.
		st.Cost()
		st.pickHullInstance(from, rng)
		st.pickHullInstance(to, rng)
		mv := st.move(i, from, to)
		st.Cost()
		if rng.Intn(3) > 0 {
			st.undo(mv)
		}
		for j, c := range st.clusters {
			if st.fresh[j] {
				if bits(st.capM[j]) != bits(st.netCap(j)) || bits(st.wlM[j]) != bits(st.netWL(j)) {
					t.Fatalf("step %d cluster %d: memoized cap/WL differ from a recompute", step, j)
				}
				if pc := st.perNetCost(j); bits(st.sqM[j]) != bits(pc*pc) {
					t.Fatalf("step %d cluster %d: memoized net weight differs from a recompute", step, j)
				}
			}
			if c.radius >= 0 {
				memo := c.radius
				c.radius = -1
				if got := st.netDelayProxy(j); bits(got) != bits(memo) {
					t.Fatalf("step %d cluster %d: memoized radius %v, recompute %v", step, j, memo, got)
				}
			}
			if c.hull != nil {
				locs := make([]geom.Point, len(c.members))
				for idx, m := range c.members {
					locs[idx] = pts[m]
				}
				if !slices.Equal(c.hull, geom.ConvexHull(locs)) {
					t.Fatalf("step %d cluster %d: memoized hull differs from a recompute", step, j)
				}
			}
		}
	}
}
