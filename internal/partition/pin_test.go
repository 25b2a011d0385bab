package partition_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/geom"
	"sllt/internal/partition"
	"sllt/internal/tree"
)

// The partition kernels are tuned for speed under a byte-identity contract:
// a faster assignment solver or annealer must return exactly what the
// reference implementation returned. These pins record the reference
// outputs so that contract is checked here, not only by an end-to-end
// benchmark. A deliberate behaviour change re-records them in the same
// commit and says so.

// pinnedSA holds the SHA-256 of RefineSA's refined assignment and move
// counts on fixtures either side of the annealer's grid threshold (2048
// instances): 2047 runs the all-members nearest-net scan, 2048 the grid.
var pinnedSA = map[int]string{
	2047: "e9b30f755eee5825ccd60b367d67dab47a2c84398a5ec478861df18662187270",
	2048: "a4f54b9dec7816c0f94a20bf1cfbc378449ce89c8f268643f359e913f75d5f85",
}

// pinnedTrees holds the SHA-256 of the tree.Fingerprint of the first two
// Table-4 designs (generator seeds 1 and 2) under cts.DefaultOptions.
var pinnedTrees = map[string]string{
	"s38584": "dd95fe4dfe72640b265b90001a59914b7ec4173b3689b80e42f45bae237d29e8",
	"s38417": "b0f1d04d2d33c787b8e3f5c83aeeaa23b405dccfdfd00e32bffbc5a50bf0f4e5",
}

// saPinFixture is a uniform placement with a few stacked duplicates, mixed
// pin caps, and a k-means start deliberately perturbed so the annealer has
// real moves to accept and reject.
func saPinFixture(n int) ([]geom.Point, []float64, int, []int) {
	rng := rand.New(rand.NewSource(int64(n)))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*900, rng.Float64()*700)
	}
	for i := 0; i < n; i += 97 {
		pts[(i+13)%n] = pts[i]
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1 + float64(i%7)*0.25
	}
	k := n / 16
	_, assign := partition.KMeans(pts, k, 15, 3)
	for i := 0; i < n; i += 11 {
		assign[i] = (assign[i] + 1) % k
	}
	return pts, caps, k, assign
}

func digestSA(assign []int, st partition.SAStats) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range append(assign, st.Proposed, st.Accepted) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRefineSAPinned(t *testing.T) {
	for n, want := range pinnedSA {
		pts, caps, k, assign := saPinFixture(n)
		var st partition.SAStats
		opt := partition.DefaultSAOptions(int64(n))
		opt.Iters = 2 * n
		// Tight constraints: every net starts in violation of at least one,
		// so the cap, wirelength and fanout charges all take part.
		opt.MaxCap = 30
		opt.MaxWL = 80
		opt.MaxFanout = 12
		opt.Stats = &st
		got := digestSA(partition.RefineSA(pts, caps, k, assign, opt), st)
		if got != want {
			t.Errorf("n=%d: RefineSA digest %s, pinned %s (proposed %d, accepted %d)", n, got, want, st.Proposed, st.Accepted)
		}
	}
}

func TestTable4FingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flow on two Table-4 designs")
	}
	for i, spec := range designgen.Table4()[:2] {
		want := pinnedTrees[spec.Name]
		res, err := cts.Run(designgen.Generate(spec, int64(i)+1), cts.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(tree.Fingerprint(res.Tree)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: fingerprint digest %s, pinned %s", spec.Name, got, want)
		}
	}
}

// pinnedScale holds the SHA-256 of the tree.Fingerprint of a 20k-sink
// scale-shape placement (Insts 2n, FFs n, Util 0.62, generator seed 1)
// under the scale tier's options: SA off, one k-means restart. That path
// runs greedy overflow repair at its large levels and salt.Reroute in every
// cluster.
const pinnedScale = "5647d813797ae1faaad17fd06acac948381c35d01e69590cc1232f241c53b119"

func TestScaleFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flow on a 20k-sink placement")
	}
	const n = 20_000
	spec := designgen.Spec{Name: "scale_20000", Insts: 2 * n, FFs: n, Util: 0.62}
	opts := cts.DefaultOptions()
	opts.UseSA = false
	opts.SAIters = 0
	opts.KMeansRestarts = 1
	res, err := cts.Run(designgen.Generate(spec, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(tree.Fingerprint(res.Tree)))
	if got := hex.EncodeToString(sum[:]); got != pinnedScale {
		t.Errorf("fingerprint digest %s, pinned %s", got, pinnedScale)
	}
}
