package partition

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// assignMCFOracle is the reference the production solver replays: the same
// min-cost max-flow over source → point (cap 1) → center (cap 1, cost =
// Manhattan distance) → sink (cap = cluster capacity), built as an explicit
// residual edge list and solved by a generic successive-shortest-path
// routine with Johnson potentials and a container/heap priority queue.
// assignMCF must return exactly its assignment and augmentation count.
func assignMCFOracle(pts []geom.Point, centers []geom.Point, cap int, kern *obs.KernelCounters) []int {
	n, k := len(pts), len(centers)
	// Node ids: 0 = source, 1..n = points, n+1..n+k = centers, n+k+1 = sink.
	src, snk := 0, n+k+1
	g := newFlowGraph(n + k + 2)
	for i, p := range pts {
		g.addEdge(src, 1+i, 1, 0)
		for j, c := range centers {
			g.addEdge(1+i, 1+n+j, 1, p.Dist(c))
		}
	}
	for j := 0; j < k; j++ {
		g.addEdge(1+n+j, snk, cap, 0)
	}
	g.minCostFlow(src, snk, n, kern)

	assign := make([]int, n)
	for i := 0; i < n; i++ {
		assign[i] = 0
		for _, eid := range g.adj[1+i] {
			e := &g.edges[eid]
			if e.to >= 1+n && e.to <= n+k && e.cap == 0 {
				assign[i] = e.to - 1 - n
				break
			}
		}
	}
	return assign
}

// flowGraph is a residual-edge min-cost max-flow structure.
type flowGraph struct {
	adj   [][]int // node -> edge ids
	edges []flowEdge
	pot   []float64 // Johnson potentials
}

type flowEdge struct {
	to   int
	cap  int
	cost float64
}

func newFlowGraph(nodes int) *flowGraph {
	return &flowGraph{adj: make([][]int, nodes), pot: make([]float64, nodes)}
}

// addEdge inserts a directed edge and its zero-capacity reverse.
func (g *flowGraph) addEdge(from, to, cap int, cost float64) {
	g.adj[from] = append(g.adj[from], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: to, cap: cap, cost: cost})
	g.adj[to] = append(g.adj[to], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: from, cap: 0, cost: -cost})
}

// minCostFlow pushes up to want units from src to snk along successive
// shortest paths, returning the units sent and total cost.
func (g *flowGraph) minCostFlow(src, snk, want int, kern *obs.KernelCounters) (int, float64) {
	sent := 0
	var total float64
	dist := make([]float64, len(g.adj))
	prevEdge := make([]int, len(g.adj))
	for sent < want {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[src] = 0
		pq := &nodePQ{{src, 0}}
		for pq.Len() > 0 {
			it := heap.Pop(pq).(nodeItem)
			if it.d > dist[it.n] {
				continue
			}
			for _, eid := range g.adj[it.n] {
				e := &g.edges[eid]
				if e.cap <= 0 {
					continue
				}
				nd := it.d + e.cost + g.pot[it.n] - g.pot[e.to]
				if nd < dist[e.to]-1e-12 {
					dist[e.to] = nd
					prevEdge[e.to] = eid
					heap.Push(pq, nodeItem{e.to, nd})
				}
			}
		}
		if math.IsInf(dist[snk], 1) {
			break // saturated
		}
		if kern != nil {
			kern.MCFAugments.Add(1)
		}
		for i := range g.pot {
			if !math.IsInf(dist[i], 1) {
				g.pot[i] += dist[i]
			}
		}
		// Augment one unit (all path capacities here are >= 1 and the
		// bottleneck source edge has capacity 1).
		aug := math.MaxInt32
		for v := snk; v != src; {
			e := &g.edges[prevEdge[v]]
			if e.cap < aug {
				aug = e.cap
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := snk; v != src; {
			eid := prevEdge[v]
			g.edges[eid].cap -= aug
			g.edges[eid^1].cap += aug
			total += float64(aug) * g.edges[eid].cost
			v = g.edges[eid^1].to
		}
		sent += aug
	}
	return sent, total
}

type nodeItem struct {
	n int
	d float64
}

type nodePQ []nodeItem

func (q nodePQ) Len() int            { return len(q) }
func (q nodePQ) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q nodePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x interface{}) { *q = append(*q, x.(nodeItem)) }
func (q *nodePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// mcfCase is one assignment instance for the oracle comparison.
type mcfCase struct {
	name    string
	pts     []geom.Point
	centers []geom.Point
	cap     int
}

// sitePts draws n points on a placement site grid (0.2 um sites, 1.4 um
// rows): Manhattan distances to grid-snapped centers tie often, so the
// answer depends on how the solver breaks them.
func sitePts(rng *rand.Rand, n, cols, rows int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(rng.Intn(cols))*0.2, float64(rng.Intn(rows))*1.4)
	}
	return pts
}

func snapToSites(cs []geom.Point) []geom.Point {
	out := make([]geom.Point, len(cs))
	for j, c := range cs {
		out[j] = geom.Pt(math.Round(c.X/0.2)*0.2, math.Round(c.Y/1.4)*1.4)
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func mcfOracleCases(t *testing.T) []mcfCase {
	rng := rand.New(rand.NewSource(120))
	var cases []mcfCase
	for trial := 0; trial < 8; trial++ {
		n, k := 30+rng.Intn(90), 3+rng.Intn(7)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		centers, _ := KMeans(pts, k, 20, int64(trial))
		cases = append(cases,
			mcfCase{fmt.Sprintf("float/%d", trial), pts, centers, ceilDiv(n, len(centers))},
			mcfCase{fmt.Sprintf("slack/%d", trial), pts, centers, ceilDiv(n, len(centers)) + 1 + trial%3})
	}
	for trial := 0; trial < 8; trial++ {
		n, k := 40+rng.Intn(120), 3+rng.Intn(9)
		pts := sitePts(rng, n, 40, 8)
		centers, _ := KMeans(pts, k, 20, int64(trial))
		cases = append(cases, mcfCase{fmt.Sprintf("sitegrid/%d", trial), pts, snapToSites(centers), ceilDiv(n, len(centers))})
	}
	for trial := 0; trial < 4; trial++ {
		// Nine in ten points crowd the first center; the rest of the
		// centers sit far away, so most of the crowd must be displaced.
		n, k := 60+rng.Intn(60), 4+trial
		pts := make([]geom.Point, n)
		for i := range pts {
			if i%10 != 0 {
				pts[i] = geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
			} else {
				pts[i] = geom.Pt(rng.Float64()*200, rng.Float64()*200)
			}
		}
		centers := []geom.Point{geom.Pt(2, 2)}
		for j := 1; j < k; j++ {
			centers = append(centers, geom.Pt(40*float64(j), 200-30*float64(j)))
		}
		cases = append(cases, mcfCase{fmt.Sprintf("contention/%d", trial), pts, centers, ceilDiv(n, k)})
	}
	if !testing.Short() {
		// The largest instance BalancedAssignK still sends to the flow
		// solver: n·k = 199,500 ≤ 200,000, salsa20-sized.
		const n, k = 2375, 84
		pts := sitePts(rng, n, 2400, 230)
		centers, _ := KMeans(pts, k, 10, 1)
		if n*len(centers) > 200_000 {
			t.Fatalf("dispatch-edge case has n·k = %d", n*len(centers))
		}
		cases = append(cases, mcfCase{"dispatch-edge", pts, snapToSites(centers), ceilDiv(n, len(centers))})
	}
	return cases
}

// assertMatchesOracle runs both solvers and fails on any difference in the
// assignment or the augmentation count.
func assertMatchesOracle(t *testing.T, pts, centers []geom.Point, cap int) {
	t.Helper()
	var gotK, wantK obs.KernelCounters
	got := assignMCF(pts, centers, cap, &gotK)
	want := assignMCFOracle(pts, centers, cap, &wantK)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d k=%d cap=%d: point %d assigned to %d, oracle %d", len(pts), len(centers), cap, i, got[i], want[i])
		}
	}
	if g, w := gotK.MCFAugments.Load(), wantK.MCFAugments.Load(); g != w {
		t.Fatalf("n=%d k=%d cap=%d: %d augmentations, oracle %d", len(pts), len(centers), cap, g, w)
	}
}

// TestAssignMCFMatchesOracle: the implicit-graph solver must reproduce the
// generic edge-list solver exactly — same assignment, ties included, and
// the same augmentation count — on random, tie-heavy site-grid, slack,
// contended and dispatch-edge instances.
func TestAssignMCFMatchesOracle(t *testing.T) {
	for _, c := range mcfOracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			assertMatchesOracle(t, c.pts, c.centers, c.cap)
		})
	}
}

// FuzzAssignMCF decodes a small instance from the input — header bytes
// pick the sizes, capacity and coordinate mode, the rest are coordinates
// (zero once the input runs out, so short inputs stack points) — and
// requires the solver to match the oracle. Capacities below ⌈n/k⌉ are
// allowed, so the saturated early exit is compared too.
func FuzzAssignMCF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 0, 0, 1, 1, 2, 2, 3, 3, 9, 9, 0, 0, 8, 8})
	f.Add([]byte{39, 7, 3, 1, 200, 10, 3, 77, 150, 150, 0, 255, 12, 34, 56, 78, 90, 12, 34})
	f.Add([]byte{20, 3, 1, 0, 0, 0, 0, 0, 0, 0, 15, 15, 15, 15, 7, 8, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1])
		}
		n, k, slack, mode := 1+next()%40, 1+next()%8, next()%4, next()%2
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
		cap := ceilDiv(n, k) - 1 + slack
		if cap < 1 {
			cap = 1
		}
		assertMatchesOracle(t, pts, centers, cap)
	})
}
