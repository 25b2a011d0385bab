package salt

import "testing"

// guardReroute is a pass's bookkeeping over a star, numbered once up front
// so the guarded scan runs steady-state.
var (
	guardReroute = func() *rerouteScratch {
		var s rerouteScratch
		s.number(rerouteFixture(2).Root, -1)
		s.comp(0, 0.2)
		return &s
	}()

	guardSinkI int
)

// allocFreeGuards pins every // hot: alloc-free kernel in this package at
// zero steady-state allocations, keyed by the kernel's display name. The
// guardcov test in internal/analysis/hotpath checks the map stays in sync
// with the annotations.
var allocFreeGuards = map[string]func(){
	"rerouteScratch.target": func() {
		guardSinkI = guardReroute.target(len(guardReroute.nodes) - 1)
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
