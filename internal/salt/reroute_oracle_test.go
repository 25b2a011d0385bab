package salt

import (
	"testing"

	"sllt/internal/geom"
	"sllt/internal/tree"
)

// rerouteOnceOracle is the reference pass the position-indexed scan
// replays: the same bookkeeping kept in pointer-keyed maps, rebuilt from
// scratch on every pass. Reroute must make exactly its moves.
func rerouteOnceOracle(t *tree.Tree, eps float64) int {
	root := t.Root
	nodes := t.Nodes()
	pl := make(map[*tree.Node]float64, len(nodes))
	for _, n := range nodes {
		pl[n] = tree.PathLength(n)
	}
	// slack[v]: the largest uniform path increase the sinks below v (and v
	// itself, if a sink) can absorb while staying within (1+eps)·MD. Nodes
	// with no sinks below have unlimited slack.
	slack := make(map[*tree.Node]float64, len(nodes))
	var comp func(n *tree.Node) float64
	comp = func(n *tree.Node) float64 {
		s := 1e18
		if n.Kind == tree.Sink {
			md := root.Loc.Dist(n.Loc)
			s = (1+eps)*md - pl[n]
		}
		for _, c := range n.Children {
			if cs := comp(c); cs < s {
				s = cs
			}
		}
		slack[n] = s
		return s
	}
	comp(root)

	// inSubtree via preorder intervals.
	index := make(map[*tree.Node]int, len(nodes))
	last := make(map[*tree.Node]int, len(nodes))
	i := 0
	var number func(n *tree.Node)
	number = func(n *tree.Node) {
		index[n] = i
		i++
		for _, c := range n.Children {
			number(c)
		}
		last[n] = i
	}
	number(root)
	inSub := func(w, v *tree.Node) bool { return index[w] >= index[v] && index[w] < last[v] }

	moved := 0
	for _, v := range nodes {
		if v.Parent == nil {
			continue
		}
		bestGain := geom.Eps
		var bestW *tree.Node
		for _, w := range nodes {
			if w == v.Parent || inSub(w, v) {
				continue
			}
			gain := v.Parent.Loc.Dist(v.Loc) - w.Loc.Dist(v.Loc)
			if gain <= bestGain {
				continue
			}
			delta := pl[w] + w.Loc.Dist(v.Loc) - pl[v]
			if delta > slack[v]+1e-9 && delta > 1e-9 {
				continue // would overrun a sink's shallowness budget
			}
			bestGain, bestW = gain, w
		}
		if bestW != nil {
			v.Detach()
			bestW.AddChild(v)
			// Conservative single-move-per-pass bookkeeping: recompute on
			// the next pass rather than patching pl/slack incrementally.
			moved++
			return moved
		}
	}
	return moved
}

// rerouteOracle is Reroute's pass loop driven by the map-based pass.
func rerouteOracle(t *tree.Tree, eps float64) int {
	if eps < 0 {
		eps = 0
	}
	moves := 0
	maxMoves := 4*len(t.Nodes()) + 8
	for moves < maxMoves {
		if rerouteOnceOracle(t, eps) == 0 {
			break
		}
		moves++
	}
	tree.LegalizeSinkLeaves(t)
	return moves
}

// TestRerouteMatchesOracle: the position-indexed scan must make the map-based
// scan's moves exactly — same output tree, same move count — on RSMTs,
// SALT-relaxed trees, stars (sink reattachment targets) and random Steiner
// topologies with stacked nodes, across eps.
func TestRerouteMatchesOracle(t *testing.T) {
	for _, eps := range []float64{0, 0.2, 1} {
		for i := 0; i < 2*rerouteFixtureCount; i++ {
			got, want := rerouteFixture(i), rerouteFixture(i)
			gm, wm := Reroute(got, eps), rerouteOracle(want, eps)
			if gm != wm {
				t.Fatalf("eps=%g fixture %d: %d moves, oracle %d", eps, i, gm, wm)
			}
			if g, w := tree.Fingerprint(got), tree.Fingerprint(want); g != w {
				t.Fatalf("eps=%g fixture %d: trees differ after %d moves\n got %s\nwant %s", eps, i, gm, g, w)
			}
		}
	}
}

// TestReroutePositionsArePreorder pins the identity the rewrite rests on:
// a node's position in t.Nodes() is its index in the oracle's preorder
// numbering, and the scratch walk lists the same nodes in the same order.
func TestReroutePositionsArePreorder(t *testing.T) {
	for i := 0; i < rerouteFixtureCount; i++ {
		tr := rerouteFixture(i)
		nodes := tr.Nodes()
		index := map[*tree.Node]int{}
		var number func(n *tree.Node)
		number = func(n *tree.Node) {
			index[n] = len(index)
			for _, c := range n.Children {
				number(c)
			}
		}
		number(tr.Root)
		var s rerouteScratch
		s.number(tr.Root, -1)
		if len(s.nodes) != len(nodes) {
			t.Fatalf("fixture %d: scratch walk has %d nodes, tree %d", i, len(s.nodes), len(nodes))
		}
		for x, n := range nodes {
			if index[n] != x || s.nodes[x] != n {
				t.Fatalf("fixture %d: node at position %d has preorder index %d", i, x, index[n])
			}
			if p := s.parent[x]; (p < 0) != (n.Parent == nil) || (p >= 0 && nodes[p] != n.Parent) {
				t.Fatalf("fixture %d: node %d has parent position %d", i, x, p)
			}
		}
	}
}
