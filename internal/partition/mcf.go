package partition

import (
	"math"
	"sort"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// assignMCF solves the capacitated assignment exactly as a min-cost
// max-flow: source → point (cap 1) → center (cap 1, cost = Manhattan
// distance) → sink (cap = cluster capacity). Successive shortest paths with
// Johnson potentials keep every Dijkstra run on non-negative reduced costs.
//
// The residual graph is never built: on this bipartite shape it is fully
// described by each point's center and each center's member list (see
// mcfSolver). The solver replays a generic edge-list solver (the oracle in
// mcf_oracle_test.go) step for step — relaxation order, float expression
// and heap pop order — so its assignment and augmentation count are
// identical to it, ties included.
func assignMCF(pts []geom.Point, centers []geom.Point, cap int, kern *obs.KernelCounters) []int {
	s := newMCFSolver(pts, centers, cap)
	for sent := 0; sent < len(pts); sent++ {
		if !s.dijkstra() {
			break // saturated
		}
		if kern != nil {
			kern.MCFAugments.Add(1)
		}
		s.augment()
	}
	assign := make([]int, len(pts))
	for i, c := range s.center {
		if c >= 0 {
			assign[i] = c
		}
	}
	return assign
}

// mcfSolver is the implicit residual graph of the assignment flow. Node ids
// follow the edge-list layout: 0 = source, 1..n = points, n+1..n+k =
// centers, n+k+1 = sink. With unit point supplies, a point carrying flow
// has exactly one saturated center edge, so the residual edges are:
//
//	source → point   cost +0    point unassigned
//	point → source   cost -0    point assigned
//	point → center   cost  dist center is not the point's own
//	center → point   cost -dist point is a member of center
//	center → sink    cost +0    center load < cap
//	sink → center    cost -0    center load > 0
type mcfSolver struct {
	n, k, cap int
	cost      []float64 // n×k row-major: cost[i*k+j] = pts[i].Dist(centers[j])
	center    []int     // point i's center, or -1 while unassigned
	members   [][]int   // center j's points, ascending; load = len
	pot       []float64 // Johnson potentials, per node
	dist      []float64 // per node, reused by every Dijkstra run
	prev      []int     // predecessor node on the shortest-path tree
	pq        []mcfItem
}

type mcfItem struct {
	n int
	d float64
}

// negZero is the cost of the zero-cost edges' reverses (the negation of
// +0), kept bit-exact because x + (+0) and x + (-0) differ when x is -0.
var negZero = math.Copysign(0, -1)

func newMCFSolver(pts []geom.Point, centers []geom.Point, cap int) *mcfSolver {
	n, k := len(pts), len(centers)
	s := &mcfSolver{
		n: n, k: k, cap: cap,
		cost:    make([]float64, n*k),
		center:  make([]int, n),
		members: make([][]int, k),
		pot:     make([]float64, n+k+2),
		dist:    make([]float64, n+k+2),
		prev:    make([]int, n+k+2),
	}
	for i, p := range pts {
		row := s.cost[i*k : (i+1)*k]
		for j, c := range centers {
			row[j] = p.Dist(c)
		}
		s.center[i] = -1
	}
	return s
}

// dijkstra computes shortest reduced-cost distances from the source and
// reports whether the sink is reachable. Each node's out-edges are relaxed
// in the order the edge list stores them (source: points ascending; point:
// source, then centers ascending; center: members ascending, then sink;
// sink: centers ascending), skipping saturated edges exactly as a capacity
// check would.
//
// hot: alloc-free
func (s *mcfSolver) dijkstra() bool {
	n, k := s.n, s.k
	src, snk := 0, n+k+1
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
		s.prev[v] = -1
	}
	s.dist[src] = 0
	s.pq = append(s.pq[:0], mcfItem{src, 0})
	for len(s.pq) > 0 {
		it := s.pop()
		u, d := it.n, it.d
		if d > s.dist[u] {
			continue
		}
		switch {
		case u == src:
			for i, c := range s.center {
				if c < 0 {
					s.relax(u, 1+i, d, 0)
				}
			}
		case u <= n:
			i := u - 1
			own := s.center[i]
			if own >= 0 {
				s.relax(u, src, d, negZero)
			}
			// relax, inlined over the n·k edges that dominate the run.
			row := s.cost[i*k : (i+1)*k]
			pu := s.pot[u]
			cpot := s.pot[1+n : 1+n+k][:len(row)]
			cdist := s.dist[1+n : 1+n+k][:len(row)]
			for j, c := range row {
				if j == own {
					continue
				}
				if nd := d + c + pu - cpot[j]; nd < cdist[j]-1e-12 {
					cdist[j] = nd
					s.prev[1+n+j] = u
					s.push(mcfItem{1 + n + j, nd})
				}
			}
		case u < snk:
			j := u - 1 - n
			for _, m := range s.members[j] {
				s.relax(u, 1+m, d, -s.cost[m*k+j])
			}
			if len(s.members[j]) < s.cap {
				s.relax(u, snk, d, 0)
			}
		default:
			for j, ms := range s.members {
				if len(ms) > 0 {
					s.relax(u, 1+n+j, d, negZero)
				}
			}
		}
	}
	return !math.IsInf(s.dist[snk], 1)
}

// relax offers v the path through u over an edge of cost c, with the edge
// list's expression and tolerance.
func (s *mcfSolver) relax(u, v int, d, c float64) {
	nd := d + c + s.pot[u] - s.pot[v]
	if nd < s.dist[v]-1e-12 {
		s.dist[v] = nd
		s.prev[v] = u
		s.push(mcfItem{v, nd})
	}
}

// push and pop are container/heap's Push and Pop on a distance-ordered
// slice, with its up and down loops copied line for line: the pop order,
// equal distances included, is the generic heap's.
func (s *mcfSolver) push(it mcfItem) {
	h := append(s.pq, it)
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.pq = h
}

func (s *mcfSolver) pop() mcfItem {
	h := s.pq
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].d < h[j1].d {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.pq = h[:n]
	return it
}

// augment reprices every reached node and pushes one unit along the path
// just found. The path alternates source → p0 → c0 → p1 → … → cm → sink
// (sink and source have no other neighbours, points and centers no edges
// among themselves): walking it back from the sink, each point joins the
// center after it, and every point but p0 leaves the center before it.
func (s *mcfSolver) augment() {
	for v, d := range s.dist {
		if !math.IsInf(d, 1) {
			s.pot[v] += d
		}
	}
	n := s.n
	for c := s.prev[n+s.k+1]; ; {
		p := s.prev[c]
		s.center[p-1] = c - 1 - n
		s.members[c-1-n] = insertSorted(s.members[c-1-n], p-1)
		if c = s.prev[p]; c == 0 {
			return
		}
		s.members[c-1-n] = removeSorted(s.members[c-1-n], p-1)
	}
}

// insertSorted adds x to the ascending set xs (no-op if present).
func insertSorted(xs []int, x int) []int {
	pos := sort.SearchInts(xs, x)
	if pos < len(xs) && xs[pos] == x {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = x
	return xs
}

// removeSorted deletes x from the ascending set xs (no-op if absent).
func removeSorted(xs []int, x int) []int {
	pos := sort.SearchInts(xs, x)
	if pos >= len(xs) || xs[pos] != x {
		return xs
	}
	return append(xs[:pos], xs[pos+1:]...)
}
