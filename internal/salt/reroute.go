package salt

import (
	"sllt/internal/geom"
	"sllt/internal/tree"
)

// Reroute greedily reattaches subtrees to nearer tree vertices when doing so
// saves wire without pushing any sink's path length beyond
// max((1+eps)·MD(sink), its current length). It is the "optimize" half of
// the paper's Step 3 ("the SALT algorithm is used to relax and optimize
// above topology"): the relaxation bounds shallowness, the rerouting
// recovers lightness. Returns the number of reattachments performed.
func Reroute(t *tree.Tree, eps float64) int {
	if t == nil || t.Root == nil {
		return 0
	}
	if eps < 0 {
		eps = 0
	}
	moves := 0
	// One reattachment per scan, with bookkeeping rebuilt from scratch in
	// between: O(n²) per move, and the move count is bounded because every
	// move strictly reduces total wirelength.
	maxMoves := 4*len(t.Nodes()) + 8
	var s rerouteScratch
	for moves < maxMoves && s.pass(t, eps) {
		moves++
	}
	// Reattachment targets may be sinks; restore the load-pins-are-leaves
	// invariant by splitting them into Steiner + zero-length leaf.
	tree.LegalizeSinkLeaves(t)
	return moves
}

// rerouteScratch is one pass's bookkeeping, indexed by preorder position
// and reused across a Reroute call's passes. The walk that fills it visits
// children in order, as t.Nodes() does, so a node's position is also its
// preorder number and v's subtree is the position range [v, last[v]).
type rerouteScratch struct {
	nodes  []*tree.Node
	parent []int        // parent's position, -1 for the root
	loc    []geom.Point // node locations, um
	pl     []float64    // unit: um // root path length
	slack  []float64    // unit: um // see comp
	last   []int        // one past the subtree's last position
}

// pass makes the first wire-saving reattachment a preorder scan finds and
// reports whether there was one.
func (s *rerouteScratch) pass(t *tree.Tree, eps float64) bool {
	s.nodes, s.parent, s.loc = s.nodes[:0], s.parent[:0], s.loc[:0]
	s.pl, s.slack, s.last = s.pl[:0], s.slack[:0], s.last[:0]
	s.number(t.Root, -1)
	s.comp(0, eps)
	for vi, v := range s.nodes {
		if v.Parent == nil {
			continue
		}
		if w := s.target(vi); w >= 0 {
			v.Detach()
			s.nodes[w].AddChild(v)
			// Conservative single-move-per-pass bookkeeping: recompute on
			// the next pass rather than patching pl/slack incrementally.
			return true
		}
	}
	return false
}

// number appends n's subtree in preorder. Path lengths are summed from
// each node upward, exactly as tree.PathLength does.
func (s *rerouteScratch) number(n *tree.Node, parent int) {
	x := len(s.nodes)
	s.nodes = append(s.nodes, n)
	s.parent = append(s.parent, parent)
	s.loc = append(s.loc, n.Loc)
	s.pl = append(s.pl, tree.PathLength(n))
	s.slack = append(s.slack, 0)
	s.last = append(s.last, 0)
	for _, c := range n.Children {
		s.number(c, x)
	}
	s.last[x] = len(s.nodes)
}

// comp sets slack[x]: the largest uniform path increase the sinks below x
// (and x itself, if a sink) can absorb while staying within (1+eps)·MD.
// Nodes with no sinks below have unlimited slack. x's children sit at x+1,
// then at each previous child's last.
func (s *rerouteScratch) comp(x int, eps float64) float64 {
	sl := 1e18
	if s.nodes[x].Kind == tree.Sink {
		md := s.loc[0].Dist(s.loc[x])
		sl = (1+eps)*md - s.pl[x]
	}
	for c := x + 1; c < s.last[x]; c = s.last[c] {
		if cs := s.comp(c, eps); cs < sl {
			sl = cs
		}
	}
	s.slack[x] = sl
	return sl
}

// target returns the position of the vertex the node at position v should
// be reattached to, or -1: of the vertices outside v's subtree other than
// its parent, the first in preorder with the largest wire saving above
// geom.Eps whose reattachment keeps the sinks below v within their
// shallowness budget (or lengthens no path).
//
// hot: alloc-free
func (s *rerouteScratch) target(v int) int {
	vloc, p, end := s.loc[v], s.parent[v], s.last[v]
	cur := s.loc[p].Dist(vloc)
	bestGain := geom.Eps
	best := -1
	for w, wloc := range s.loc {
		if w == p || (w >= v && w < end) {
			continue
		}
		gain := cur - wloc.Dist(vloc)
		if gain <= bestGain {
			continue
		}
		delta := s.pl[w] + wloc.Dist(vloc) - s.pl[v]
		if delta > s.slack[v]+1e-9 && delta > 1e-9 {
			continue // would overrun a sink's shallowness budget
		}
		bestGain, best = gain, w
	}
	return best
}
