package partition

import (
	"math"
	"math/rand"

	"sllt/internal/geom"
	"sllt/internal/geom/index"
	"sllt/internal/obs"
)

// saGridThreshold is the instance count at which the annealer's
// nearest-other-net query switches from the all-members scan to a grid
// expanding-ring query. Below it (every level the golden-path designs
// produce) the scan runs unchanged; above it the grid keeps each move
// near-O(1) instead of O(n). The two resolve exact distance ties
// differently (scan: lowest cluster then member order; grid: lowest
// instance index), which is why the fast path sits behind the threshold.
const saGridThreshold = 2048

// SAOptions configures simulated-annealing partition refinement.
type SAOptions struct {
	Iters int
	Seed  int64
	// P and Q weight the capacitance and delay variances in the paper's
	// Cost = p·σ(Cap) + q·σ(T) metric.
	P, Q float64
	// CPerUm converts estimated net wirelength to capacitance, making
	// capacitance the unified violation metric (§3.2).
	CPerUm float64
	// MaxCap, MaxWL, MaxFanout are the per-net constraints (Table 5);
	// violations are charged as equivalent capacitance.
	MaxCap    float64
	MaxWL     float64
	MaxFanout int
	// InitTemp is the starting temperature; 0 picks a default from the
	// initial cost.
	InitTemp float64
	// Stats, when non-nil, receives the run's move counts. RefineSA is
	// called from the serial level loop, so plain ints suffice.
	Stats *SAStats
	// Kernel, when non-nil, receives the same counts as atomic kernel
	// counters (plus the instance grid's query counters on large levels).
	// Neither sink feeds back into any decision.
	Kernel *obs.KernelCounters
}

// SAStats reports one RefineSA run's annealing activity.
type SAStats struct {
	Proposed int // moves attempted (a hull instance found a target net)
	Accepted int // moves kept by the annealing rule
}

// DefaultSAOptions returns the options used by the hierarchical flow.
func DefaultSAOptions(seed int64) SAOptions {
	return SAOptions{
		Iters: 400, Seed: seed,
		P: 1, Q: 1,
		CPerUm: 0.12, MaxCap: 150, MaxWL: 300, MaxFanout: 32,
	}
}

// clusterState tracks incremental cluster statistics during annealing.
//
// Members are held as a sorted index slice, not a map: SA refinement walks
// the membership when rebuilding bounding boxes, picking hull instances and
// scanning for nearest nets, and map iteration order would make those walks
// — and therefore the refined assignment — vary from run to run under the
// same seed.
type clusterState struct {
	members []int // instance indices, sorted ascending
	capSum  float64
	bbox    geom.Rect
	cx, cy  float64 // coordinate sums for the centroid

	// Memoized per-cluster geometry, recomputed lazily after a membership
	// change. The hull derives from the sorted members, the radius from
	// them and the centroid sums, so a cached value is bit-identical to a
	// recompute — the caches change wall clock, never results.
	hull   []geom.Point // convex hull of member locations; nil when stale
	radius float64      // unit: um // netDelayProxy value; < 0 when stale
}

// insert adds i to the sorted member set.
func (c *clusterState) insert(i int) {
	c.members = insertSorted(c.members, i)
	c.hull, c.radius = nil, -1
}

// remove deletes i from the sorted member set.
func (c *clusterState) remove(i int) {
	c.members = removeSorted(c.members, i)
	c.hull, c.radius = nil, -1
}

// geomMemo is a cluster's memoized geometry, saved before a trial move so a
// rejected move can put it back instead of recomputing it.
type geomMemo struct {
	hull   []geom.Point
	radius float64
	cx, cy float64
}

func (c *clusterState) save() geomMemo {
	return geomMemo{hull: c.hull, radius: c.radius, cx: c.cx, cy: c.cy}
}

// restore reinstates m after a move and its undo returned the member set
// bit for bit. The hull depends on the members alone; the radius also on
// the centroid sums, which the subtract-then-add round trip can perturb,
// so it is kept only when they came back bit-equal.
func (c *clusterState) restore(m geomMemo) {
	c.hull = m.hull
	if c.cx == m.cx && c.cy == m.cy {
		c.radius = m.radius
	}
}

// saState is the annealing state over a whole partition.
type saState struct {
	pts      []geom.Point
	caps     []float64
	assign   []int
	clusters []*clusterState
	opt      SAOptions
	// grid indexes the (fixed) instance locations for nearestOtherNet on
	// large levels; nil below saGridThreshold. Moves change only assign, so
	// the index never needs rebuilding.
	grid *index.Grid

	// Per-cluster memo of the terms Cost and pickCostlyNet read on every
	// move: net cap, net wirelength and squared perNetCost, valid while
	// fresh[j]. addTo and removeFrom clear the touched cluster, so a move
	// recomputes two clusters' terms rather than all k. Each memoized value
	// is what a recompute would return, bit for bit.
	capM, wlM, sqM []float64
	fresh          []bool
	// Scratch reused by Cost across moves.
	capV, tV []float64
}

func newSAState(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) *saState {
	st := &saState{pts: pts, caps: caps, assign: append([]int(nil), assign...), opt: opt}
	st.clusters = make([]*clusterState, k)
	st.capM, st.wlM, st.sqM = make([]float64, k), make([]float64, k), make([]float64, k)
	st.fresh = make([]bool, k)
	st.capV, st.tV = make([]float64, 0, k), make([]float64, 0, k)
	for j := range st.clusters {
		st.clusters[j] = &clusterState{bbox: geom.EmptyRect(), radius: -1}
	}
	for i := range pts {
		st.addTo(assign[i], i)
	}
	if len(pts) >= saGridThreshold {
		st.grid = index.New(pts)
		st.grid.Kernel = opt.Kernel
	}
	return st
}

func (st *saState) addTo(j, i int) {
	c := st.clusters[j]
	c.insert(i)
	c.capSum += st.caps[i]
	c.bbox = c.bbox.Grow(st.pts[i])
	c.cx += st.pts[i].X
	c.cy += st.pts[i].Y
	st.assign[i] = j
	st.fresh[j] = false
}

func (st *saState) removeFrom(j, i int) {
	c := st.clusters[j]
	c.remove(i)
	c.capSum -= st.caps[i]
	c.cx -= st.pts[i].X
	c.cy -= st.pts[i].Y
	st.fresh[j] = false
	// bbox must be rebuilt after removal.
	c.bbox = geom.EmptyRect()
	for _, m := range c.members {
		c.bbox = c.bbox.Grow(st.pts[m])
	}
}

// saMove is one trial move and the geometry its undo reinstates.
type saMove struct {
	i, from, to    int
	fromGeo, toGeo geomMemo
}

// move takes instance i from cluster from to cluster to.
func (st *saState) move(i, from, to int) saMove {
	mv := saMove{i: i, from: from, to: to, fromGeo: st.clusters[from].save(), toGeo: st.clusters[to].save()}
	st.removeFrom(from, i)
	st.addTo(to, i)
	return mv
}

// undo reverses a rejected move. Both member sets come back as they were,
// so their saved geometry is reinstated rather than recomputed.
func (st *saState) undo(mv saMove) {
	st.removeFrom(mv.to, mv.i)
	st.addTo(mv.from, mv.i)
	st.clusters[mv.from].restore(mv.fromGeo)
	st.clusters[mv.to].restore(mv.toGeo)
}

// netCap estimates a cluster net's total capacitance: pins plus wire at the
// HPWL-based length estimate.
func (st *saState) netCap(j int) float64 {
	c := st.clusters[j]
	return c.capSum + st.opt.CPerUm*st.netWL(j)
}

// netWL estimates routed wirelength as 1.2 × bounding-box half-perimeter, a
// standard pre-route estimate.
func (st *saState) netWL(j int) float64 {
	return 1.2 * st.clusters[j].bbox.HalfPerimeter()
}

// netDelayProxy is the T_j term: the cluster radius (max member distance
// from the centroid), which tracks the net's max driver-to-sink delay. The
// value is memoized on the cluster: Cost() evaluates every cluster each
// annealing move, but only the two clusters the move touched changed.
func (st *saState) netDelayProxy(j int) float64 {
	c := st.clusters[j]
	if c.radius >= 0 {
		return c.radius
	}
	n := len(c.members)
	if n == 0 {
		c.radius = 0
		return 0
	}
	ctr := geom.Pt(c.cx/float64(n), c.cy/float64(n))
	var r float64
	for _, m := range c.members {
		if d := st.pts[m].Dist(ctr); d > r {
			r = d
		}
	}
	c.radius = r
	return r
}

// refresh recomputes cluster j's memoized cost terms if a move cleared them.
func (st *saState) refresh(j int) {
	if st.fresh[j] {
		return
	}
	st.capM[j] = st.netCap(j)
	st.wlM[j] = st.netWL(j)
	c := st.perNetCost(j)
	// Square to sharpen toward the worst nets.
	st.sqM[j] = c * c
	st.fresh[j] = true
}

// Cost evaluates the paper's partition metric over the current state:
// p·σ(Cap) + q·σ(T) plus capacitance-unified constraint violations. The
// per-cluster terms come from the memo; the sums run over the clusters in
// index order as a full recompute would.
//
// hot: alloc-free
func (st *saState) Cost() float64 {
	capV, tV := st.capV[:0], st.tV[:0]
	var viol float64
	for j := range st.clusters {
		if len(st.clusters[j].members) == 0 {
			continue
		}
		st.refresh(j)
		nc := st.capM[j]
		capV = append(capV, nc)
		tV = append(tV, st.netDelayProxy(j))
		if nc > st.opt.MaxCap {
			viol += nc - st.opt.MaxCap
		}
		if wl := st.wlM[j]; wl > st.opt.MaxWL {
			viol += st.opt.CPerUm * (wl - st.opt.MaxWL)
		}
		if st.opt.MaxFanout > 0 && len(st.clusters[j].members) > st.opt.MaxFanout {
			// Each extra sink charged at the mean pin cap.
			viol += float64(len(st.clusters[j].members)-st.opt.MaxFanout) * 2
		}
	}
	st.capV, st.tV = capV, tV
	return st.opt.P*variance(capV) + st.opt.Q*variance(tV) + 4*viol
}

func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// perNetCost ranks nets for move selection: their own cap plus violations.
func (st *saState) perNetCost(j int) float64 {
	c := st.clusters[j]
	if len(c.members) == 0 {
		return 0
	}
	cost := st.netCap(j) + st.opt.CPerUm*st.netWL(j)
	if nc := st.netCap(j); nc > st.opt.MaxCap {
		cost += 4 * (nc - st.opt.MaxCap)
	}
	return cost
}

// RefineSA improves a balanced-k-means partition with the Fig. 4 local
// search: repeatedly pick a high-cost net, take an instance on its convex
// hull, move it to the nearest other net, and accept by the annealing rule.
// Returns the refined assignment (the input slice is not modified).
//
// pure:
//
//slltlint:ignore stagepure opt.Stats and opt.Kernel are write-only observability out-params that never feed back into the search; sa_determinism_test pins the returned assignment
func RefineSA(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) []int {
	if opt.Iters <= 0 || k < 2 {
		return append([]int(nil), assign...)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	st := newSAState(pts, caps, k, assign, opt)
	cur := st.Cost()
	best := cur
	bestAssign := append([]int(nil), st.assign...)

	temp := opt.InitTemp
	if temp <= 0 {
		temp = math.Max(cur*0.05, 1e-6)
	}
	cool := math.Pow(1e-3, 1/float64(opt.Iters)) // reach 0.1% of T0 at the end

	for it := 0; it < opt.Iters; it++ {
		// The draw is taken even when no net has positive cost and the
		// search stops; nothing reads rng after that, so the stream is
		// unchanged where it matters.
		j := st.pickCostlyNet(rng.Float64())
		if j < 0 {
			break
		}
		i := st.pickHullInstance(j, rng)
		if i < 0 {
			continue
		}
		to := st.nearestOtherNet(i, j)
		if to < 0 {
			continue
		}
		if opt.Stats != nil {
			opt.Stats.Proposed++
		}
		if opt.Kernel != nil {
			opt.Kernel.SAProposed.Add(1)
		}
		mv := st.move(i, j, to)
		next := st.Cost()
		delta := next - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			if opt.Stats != nil {
				opt.Stats.Accepted++
			}
			if opt.Kernel != nil {
				opt.Kernel.SAAccepted.Add(1)
			}
			cur = next
			if cur < best {
				best = cur
				copy(bestAssign, st.assign)
			}
		} else {
			st.undo(mv)
		}
		temp *= cool
	}
	return bestAssign
}

// pickCostlyNet samples nets with probability weighted by squared cost
// (greedy in expectation — the paper's observation that descending net cost
// order reduces global cost efficiently — but still stochastic for
// annealing). u is the uniform [0,1) draw that picks the net.
//
// hot: alloc-free
func (st *saState) pickCostlyNet(u float64) int {
	var total float64
	for j := range st.clusters {
		st.refresh(j)
		total += st.sqM[j]
	}
	if total <= 0 {
		return -1
	}
	r := u * total
	for j, c := range st.sqM {
		r -= c
		if r <= 0 {
			return j
		}
	}
	return len(st.clusters) - 1
}

// pickHullInstance returns a member of net j lying on the cluster's convex
// hull (a boundary instance, per the paper's first observation: moving
// interior instances crosses interconnections).
func (st *saState) pickHullInstance(j int, rng *rand.Rand) int {
	c := st.clusters[j]
	if len(c.members) <= 1 {
		return -1
	}
	if c.hull == nil {
		locs := make([]geom.Point, len(c.members))
		for idx, m := range c.members {
			locs[idx] = st.pts[m]
		}
		c.hull = geom.ConvexHull(locs)
	}
	if len(c.hull) == 0 {
		return -1
	}
	// The memoized hull is rebuilt from the same sorted member set the old
	// code walked, so the rng.Intn stream and the chosen vertex are
	// unchanged; co-located members still resolve to the lowest index.
	target := c.hull[rng.Intn(len(c.hull))]
	for _, m := range c.members {
		if st.pts[m].Eq(target) {
			return m
		}
	}
	return -1
}

// nearestOtherNet returns the cluster (≠ from) whose nearest member is
// closest to point i. Above saGridThreshold the answer comes from one
// expanding-ring query over the instance grid (skipping members of from —
// including i itself, whose assignment is still from at call time); below
// it the original all-members scan runs unchanged.
func (st *saState) nearestOtherNet(i, from int) int {
	if st.grid != nil {
		q := st.pts[i]
		j, _ := st.grid.Nearest(q, func(m int) bool { return st.assign[m] == from })
		if j < 0 {
			return -1
		}
		return st.assign[j]
	}
	best, bd := -1, math.Inf(1)
	for j := range st.clusters {
		if j == from || len(st.clusters[j].members) == 0 {
			continue
		}
		for _, m := range st.clusters[j].members {
			if d := st.pts[i].Dist(st.pts[m]); d < bd {
				best, bd = j, d
			}
		}
	}
	return best
}
