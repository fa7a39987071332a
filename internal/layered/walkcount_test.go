package layered

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// FuzzWalkCount fuzzes Invariant 28, the count the amortised solve path's
// cardinality gate rests on: for an exact maximum matching M' of L', the
// symmetric difference ML' Δ M' holds exactly |M'| − len(InteriorX)
// augmenting walks — what AugmentingWalks emits and what the generic
// SymmetricDifference route selects. Random small graph, random matching,
// random bipartition, random class weight and two random populated τ-pairs, the
// second delta-built over the first so that both exact entry points
// (HopcroftKarpRetained, and RepairHK on a kept prefix) supply M'.
func FuzzWalkCount(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(1))
	f.Add(int64(2), uint8(3), uint8(1), uint16(7), uint16(8))
	f.Add(int64(3), uint8(1), uint8(2), uint16(40), uint16(41))
	f.Fuzz(func(t *testing.T, seed int64, granSel, classSel uint8, pairA, pairB uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(17)
		edges := graph.RandomGraph(n, 1+rng.Intn(4*n), 1<<6, rng).G.Edges()
		if len(edges) == 0 {
			t.Skip()
		}
		m := graph.NewMatching(n)
		for _, i := range rng.Perm(len(edges)) {
			if e := edges[i]; rng.Intn(2) == 0 && !m.IsMatched(e.U) && !m.IsMatched(e.V) {
				if err := m.Add(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		if len(ws) == 0 {
			t.Skip()
		}
		par := Parametrize(n, edges, m, rng)
		s := NewScratch()
		s.EnableDeltaBaseline()
		ix := s.Index(par, ws[int(classSel)%len(ws)], prm)
		aMask, bMask, ok := ix.Masks()
		if !ok {
			t.Skip()
		}
		// Populated-window pairs only, capped: the full Table-1 space runs
		// into millions of pairs at fine granularity.
		pairs := EnumerateGoodPairsMasked(prm, aMask, bMask, 512)
		if len(pairs) == 0 {
			t.Skip()
		}
		hk := bipartite.NewScratch()
		var prev *Layered
		var baseTok, baseSeq uint64
		for _, sel := range []uint16{pairA, pairB} {
			tau := pairs[int(sel)%len(pairs)]
			var lay *Layered
			if prev != nil {
				lay, _, _ = BuildDelta(ix, prev, tau, s, 1)
			}
			if lay == nil {
				lay = BuildIndexed(ix, tau, s)
			}
			prev = lay
			lp := lay.LPrimeEdges()
			if len(lp) == 0 {
				continue
			}
			bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
			var res bipartite.Result
			if d := lay.Delta; d.Valid && baseTok != 0 && d.BaseSeq == baseSeq {
				var err error
				res, err = bipartite.RepairHK(bip, hk, bipartite.RepairInfo{
					BaseToken: baseTok, KeptVerts: d.KeptIDs, KeptEdges: d.KeptLPrime,
				})
				if err != nil {
					t.Fatalf("RepairHK: %v", err)
				}
			} else {
				res = bipartite.HopcroftKarpRetained(bip, hk)
			}
			baseTok, baseSeq = hk.SolveToken(), lay.BuildSeq()
			if hk.Size() != res.M.Size() {
				t.Fatalf("Size() = %d, filled matching has %d edges", hk.Size(), res.M.Size())
			}
			want := res.M.Size() - len(lay.InteriorX)
			if want < 0 {
				t.Fatalf("maximum matching of L' (%d edges) smaller than ML' (%d)", res.M.Size(), len(lay.InteriorX))
			}
			got := 0
			lay.AugmentingWalks(res.M, func(Walk) { got++ })
			if got != want {
				t.Fatalf("tau %+v: %d augmenting walks, want |M'| − |ML'| = %d − %d",
					tau, got, res.M.Size(), len(lay.InteriorX))
			}
			ref := 0
			for _, c := range graph.SymmetricDifference(lay.MatchingLPrime(), res.M) {
				if isAugmentingPath(c) {
					ref++
				}
			}
			if ref != want {
				t.Fatalf("tau %+v: SymmetricDifference selects %d augmenting paths, want %d", tau, ref, want)
			}
		}
	})
}
