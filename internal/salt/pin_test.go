package salt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/rsmt"
	"sllt/internal/tree"
)

// Reroute is tuned for speed under a byte-identity contract: a faster scan
// must reattach exactly the subtrees the reference scan reattached, in the
// same order. pinnedReroute records the reference outputs so that contract
// is checked here, not only by the flow-level fingerprints. A deliberate
// behaviour change re-records them in the same commit and says so.
//
// Each value is the SHA-256 over rerouteFixtures' trees of Reroute's output
// tree.Fingerprint and move count, keyed by eps.
var pinnedReroute = map[float64]string{
	0:   "6dcce30dae34240c3209783379c2ecc39b98b205b3a6156e530241baa7d85c27",
	0.2: "6d90134fd32beddda56bfbf56828ad0507fb9b8d1649ec4a6e4dcf3a2f63c20f",
}

// rerouteFixtureCount is the number of trees in the pinned family.
const rerouteFixtureCount = 80

// rerouteFixture builds the i-th tree of the reroute test family. The net
// mixes float and site-grid coordinates, sinks stacked on earlier sinks and
// on the source; the topology cycles through an RSMT, a SALT-relaxed RSMT
// (the shape the CBS flow reroutes), a star (every reattachment target is a
// sink) and a random Steiner topology with long detours to recover.
func rerouteFixture(i int) *tree.Tree {
	rng := rand.New(rand.NewSource(int64(i) + 1))
	n := 3 + rng.Intn(45)
	net := &tree.Net{Name: "f", Source: geom.Pt(float64(rng.Intn(200)), float64(rng.Intn(200)))}
	for len(net.Sinks) < n {
		var p geom.Point
		switch r := rng.Intn(20); {
		case r < 3 && len(net.Sinks) > 0:
			p = net.Sinks[rng.Intn(len(net.Sinks))].Loc
		case r == 3:
			p = net.Source
		case i%2 == 0:
			p = geom.Pt(float64(rng.Intn(40))*5, float64(rng.Intn(40))*5)
		default:
			p = geom.Pt(rng.Float64()*200, rng.Float64()*200)
		}
		net.Sinks = append(net.Sinks, tree.PinSink{Name: "s", Loc: p, Cap: 1})
	}
	switch i % 4 {
	case 0:
		return rsmt.Build(net)
	case 1:
		return Build(net, 0.1)
	case 2:
		t := tree.New(net.Source)
		for s := range net.Sinks {
			t.Root.AddChild(net.SinkNode(s))
		}
		return t
	}
	t := tree.New(net.Source)
	hubs := []*tree.Node{t.Root}
	for s := range net.Sinks {
		if rng.Intn(3) == 0 {
			st := tree.NewNode(tree.Steiner, geom.Pt(rng.Float64()*200, rng.Float64()*200))
			hubs[rng.Intn(len(hubs))].AddChild(st)
			hubs = append(hubs, st)
		}
		hubs[rng.Intn(len(hubs))].AddChild(net.SinkNode(s))
	}
	return t
}

// rerouteDigest hashes the fingerprints and move counts of run over every
// fixture tree at the given eps.
func rerouteDigest(eps float64, run func(*tree.Tree, float64) int) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < rerouteFixtureCount; i++ {
		t := rerouteFixture(i)
		moves := run(t, eps)
		h.Write([]byte(tree.Fingerprint(t)))
		binary.LittleEndian.PutUint64(buf[:], uint64(moves))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestReroutePinned(t *testing.T) {
	for eps, want := range pinnedReroute {
		if got := rerouteDigest(eps, Reroute); got != want {
			t.Errorf("eps=%g: Reroute digest %s, pinned %s", eps, got, want)
		}
	}
}
