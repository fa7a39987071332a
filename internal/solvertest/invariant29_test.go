package solvertest

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/layered"
)

// Invariant 29 (augmentability probe): for every surviving τ-pair,
// layered.Layered.CanAugment() holds exactly when an exact maximum matching
// M' of L' is larger than ML' (|ML'| = len(InteriorX)) — by Berge's lemma,
// exactly when L' has an ML'-augmenting path. The default solve path skips
// Hopcroft–Karp and the walk scan on every pair the probe closes, which by
// Invariant 28 are exactly the pairs with no walk to extract.

// TestCanAugmentMatchesHK is the pair half of Invariant 29: on every
// surviving τ-pair of every family, built from scratch, delta-chained
// within a class-round, and delta-chained across the bipartition redraw,
// the probe agrees with a cold Hopcroft–Karp solve of L'. Both answers and
// the cross-round links must be exercised.
func TestCanAugmentMatchesHK(t *testing.T) {
	for _, c := range []struct {
		name string
		mode chainMode
	}{{"indexed", chainIndexed}, {"round-chain", chainRound}, {"cross-round", chainCross}} {
		t.Run(c.name, func(t *testing.T) {
			open, closed := 0, 0
			links := forEachSolvedPair(t, 29, c.mode, func(name string, lay *layered.Layered, bip *bipartite.Bip) {
				want := bipartite.HopcroftKarp(bip).M.Size() > len(lay.InteriorX)
				if got := lay.CanAugment(); got != want {
					t.Fatalf("%s tau %+v: CanAugment %v, HK |M'| > |ML'| = %v (K=%d, %d Y, %d interior X, delta %v)",
						name, lay.Tau, got, want, lay.K, len(lay.Y), len(lay.InteriorX), lay.Delta.Valid)
				}
				if want {
					open++
				} else {
					closed++
				}
			})
			if open == 0 || closed == 0 {
				t.Fatalf("probe net not exercised: %d pairs can augment, %d cannot", open, closed)
			}
			if c.mode == chainCross && links == 0 {
				t.Fatal("no build chained across a round boundary")
			}
			t.Logf("%d pairs can augment, %d closed, %d cross-round links", open, closed, links)
		})
	}
}
