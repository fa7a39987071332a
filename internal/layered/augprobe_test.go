package layered

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// hkCanAugment is the reference Invariant 29 holds CanAugment to: an exact
// maximum matching of L' is larger than ML'.
func hkCanAugment(lay *Layered) bool {
	lp := lay.LPrimeEdges()
	if len(lp) == 0 {
		return false
	}
	bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
	return bipartite.HopcroftKarp(bip).M.Size() > len(lay.InteriorX)
}

// probeSetup builds a hand-made instance on a fixed bipartition: vertices
// a=0 (L, free), f=1 (R, free), and two matched pairs p1=2 (L) – q1=3 (R)
// and p2=4 (L) – q2=5 (R) of weight 5; unmatched edges of weight 4 are
// given by the caller.
func probeSetup(t *testing.T, unmatched [][2]int) *Parametrized {
	t.Helper()
	g := graph.New(6)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(4, 5, 5)
	for _, e := range unmatched {
		g.MustAddEdge(e[0], e[1], 4)
	}
	m := graph.NewMatching(6)
	for _, e := range []graph.Edge{{U: 2, V: 3, W: 5}, {U: 4, V: 5, W: 5}} {
		if err := m.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	side := []bool{false, true, false, true, false, true}
	return ParametrizeWithSide(6, g.Edges(), m, side)
}

// TestCanAugmentK1: with one Y gap there is no interior layer, ML' is
// empty and any surviving Y edge is an augmenting path by itself.
func TestCanAugmentK1(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	tau := TauPair{AUnits: []int{0, 0}, BUnits: []int{4}}
	if !tau.IsGood(p) {
		t.Fatal("constructed pair not good")
	}
	// f (R, free) – a (L, free): f in layer 0, a in layer 1.
	lay := Build(probeSetup(t, [][2]int{{1, 0}}), tau, 8, p)
	if lay.K != 1 || len(lay.Y) != 1 || len(lay.InteriorX) != 0 {
		t.Fatalf("K=%d Y=%v InteriorX=%v, want K=1 with one Y edge", lay.K, lay.Y, lay.InteriorX)
	}
	if !lay.CanAugment() || !hkCanAugment(lay) {
		t.Fatalf("K=1 pair with a Y edge: probe %v, HK %v, want both true", lay.CanAugment(), hkCanAugment(lay))
	}
	// Only matched endpoints: f–p1 has its L end matched, so layer 1 drops it.
	lay = Build(probeSetup(t, [][2]int{{1, 2}}), tau, 8, p)
	if len(lay.Y) != 0 || lay.CanAugment() {
		t.Fatalf("K=1 pair without Y edges: Y=%v, probe %v", lay.Y, lay.CanAugment())
	}
}

// TestCanAugmentDeadEndInteriorLayer: both Y gaps are populated, yet the
// only copy gap 0 reaches (p1 in layer 1, continuing through its X mate
// q1) has no Y edge into layer 2, and the copy that does (q2) is not
// reached. No augmenting path exists although every gap has an edge; the
// extra edge q1–a closes one.
func TestCanAugmentDeadEndInteriorLayer(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	tau := TauPair{AUnits: []int{0, 5, 0}, BUnits: []int{4, 4}}
	if !tau.IsGood(p) {
		t.Fatal("constructed pair not good")
	}
	dead := Build(probeSetup(t, [][2]int{{1, 2}, {5, 0}}), tau, 8, p)
	if len(dead.Y) != 2 || len(dead.InteriorX) != 2 {
		t.Fatalf("Y=%v InteriorX=%v, want two Y edges over two interior X edges", dead.Y, dead.InteriorX)
	}
	if dead.LayerOf(dead.Y[0].U) != 0 || dead.LayerOf(dead.Y[1].U) != 1 {
		t.Fatalf("Y edges %v do not span both gaps", dead.Y)
	}
	if dead.CanAugment() || hkCanAugment(dead) {
		t.Fatalf("dead-end layer: probe %v, HK %v, want both false", dead.CanAugment(), hkCanAugment(dead))
	}
	open := Build(probeSetup(t, [][2]int{{1, 2}, {5, 0}, {3, 0}}), tau, 8, p)
	if !open.CanAugment() || !hkCanAugment(open) {
		t.Fatalf("q1–a added: probe %v, HK %v, want both true", open.CanAugment(), hkCanAugment(open))
	}
}

// TestCanAugmentAllocFree pins the probe's arena reuse: after the first
// call has sized the tables, a scratch-backed probe allocates nothing.
func TestCanAugmentAllocFree(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	tau := TauPair{AUnits: []int{0, 5, 0}, BUnits: []int{4, 4}}
	s := NewScratch()
	ix := s.Index(probeSetup(t, [][2]int{{1, 2}, {5, 0}, {3, 0}}), 8, p)
	lay := BuildIndexed(ix, tau, s)
	lay.CanAugment()
	if n := testing.AllocsPerRun(100, func() { lay.CanAugment() }); n != 0 {
		t.Fatalf("CanAugment allocates %.1f times per call", n)
	}
}

// FuzzCanAugment fuzzes Invariant 29: on random small graphs, matchings,
// bipartitions, class weights and two random populated τ-pairs — the
// second delta-built over the first, as the amortised sweep chains them —
// CanAugment agrees with an exact Hopcroft–Karp solve of L' on whether
// |M'| > |ML'|, for the arena-backed build and for its detached copy.
func FuzzCanAugment(f *testing.F) {
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
		pairs := EnumerateGoodPairsMasked(prm, aMask, bMask, 512)
		if len(pairs) == 0 {
			t.Skip()
		}
		var prev *Layered
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
			got, want := lay.CanAugment(), hkCanAugment(lay)
			if got != want {
				t.Fatalf("tau %+v: CanAugment %v, HK |M'| > |ML'| = %v (K=%d, %d Y, %d interior X)",
					tau, got, want, lay.K, len(lay.Y), len(lay.InteriorX))
			}
			if fresh := BuildIndexed(ix, tau, nil); fresh.CanAugment() != got {
				t.Fatalf("tau %+v: detached from-scratch build probes %v, arena build %v", tau, !got, got)
			}
		}
	})
}

// probeIndexView returns the class-8 IncView of a probeSetup instance with
// its round begun on par. Every probeSetup edge crosses the bipartition,
// so par.A and par.B together are the graph (unmatched edges keep their
// order, which is the grouped tables' bucket order).
func probeIndexView(t *testing.T, par *Parametrized, p Params) *IncView {
	t.Helper()
	edges := append(append([]graph.Edge(nil), par.A...), par.B...)
	inc := NewIncIndex(par.N, edges, []float64{8}, p)
	if err := inc.BeginRound(par); err != nil {
		t.Fatal(err)
	}
	return inc.View(0)
}

// TestCanAugmentPairHandBuilt holds the index probe to Invariant 30 on the
// hand-built instances: K = 1 with and without a Y edge, the dead-end
// interior layer and its open variant, and a vertex reached in two
// consecutive layers. The last case needs both parity tables: gap 1 reads
// q1's layer-1 reach after q2–p1 has marked q1 reached in layer 2, so one
// shared table would lose the path f–p1=q1–p2=q2–a.
func TestCanAugmentPairHandBuilt(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	k1 := TauPair{AUnits: []int{0, 0}, BUnits: []int{4}}
	k2 := TauPair{AUnits: []int{0, 5, 0}, BUnits: []int{4, 4}}
	k3 := TauPair{AUnits: []int{0, 5, 5, 0}, BUnits: []int{4, 4, 4}}
	for _, c := range []struct {
		name      string
		tau       TauPair
		unmatched [][2]int
		want      bool
	}{
		{"k1-edge", k1, [][2]int{{1, 0}}, true},
		{"k1-empty", k1, [][2]int{{1, 2}}, false},
		{"dead-end", k2, [][2]int{{1, 2}, {5, 0}}, false},
		{"dead-end-open", k2, [][2]int{{1, 2}, {5, 0}, {3, 0}}, true},
		{"parity", k3, [][2]int{{1, 2}, {1, 4}, {5, 2}, {3, 4}, {5, 0}}, true},
		{"parity-closed", k3, [][2]int{{1, 2}, {1, 4}, {5, 2}, {3, 4}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.tau.IsGood(p) {
				t.Fatal("constructed pair not good")
			}
			v := probeIndexView(t, probeSetup(t, c.unmatched), p)
			lay := BuildIndexed(v, c.tau, nil)
			if hk := hkCanAugment(lay); hk != c.want || lay.CanAugment() != c.want {
				t.Fatalf("built graph: HK %v, CanAugment %v, want %v (Y=%v)", hk, lay.CanAugment(), c.want, lay.Y)
			}
			if got := v.CanAugmentPair(c.tau, NewScratch()); got != c.want {
				t.Fatalf("CanAugmentPair %v, want %v", got, c.want)
			}
		})
	}
}

// TestCanAugmentPairAllocFree pins the index probe's arena reuse: once the
// grouped tables are materialised and the parity tables sized, a probe
// allocates nothing.
func TestCanAugmentPairAllocFree(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	tau := TauPair{AUnits: []int{0, 5, 5, 0}, BUnits: []int{4, 4, 4}}
	v := probeIndexView(t, probeSetup(t, [][2]int{{1, 2}, {1, 4}, {5, 2}, {3, 4}, {5, 0}}), p)
	s := NewScratch()
	v.CanAugmentPair(tau, s)
	if n := testing.AllocsPerRun(100, func() { v.CanAugmentPair(tau, s) }); n != 0 {
		t.Fatalf("CanAugmentPair allocates %.1f times per call", n)
	}
}

// FuzzCanAugmentPair fuzzes Invariant 30: on random small graphs, evolving
// matchings, two bipartition redraws, random classes and two random
// surviving τ-pairs per round, the index probe agrees with CanAugment on
// the pair's from-scratch build and with a cold Hopcroft–Karp of its L'.
// One probe arena serves every call, as a class worker's does.
func FuzzCanAugmentPair(f *testing.F) {
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
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		if len(ws) == 0 {
			t.Skip()
		}
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		s := NewScratch()
		enum := NewPairScratch()
		for round := 0; round < 2; round++ {
			for _, i := range rng.Perm(len(edges))[:1+len(edges)/2] {
				mutateMatching(m, edges[i], byte(rng.Intn(256)))
			}
			if err := inc.BeginRound(Parametrize(n, edges, m, rng)); err != nil {
				t.Fatal(err)
			}
			v := inc.View(int(classSel) % len(ws))
			aMask, bMask, ok := v.Masks()
			if !ok {
				t.Skip()
			}
			orc, ok := v.Oracle()
			if !ok {
				t.Skip()
			}
			pairs, _ := EnumerateSurvivingPairs(prm, aMask, bMask, 512, orc, enum)
			if len(pairs) == 0 {
				continue
			}
			for _, sel := range []uint16{pairA, pairB} {
				tau := pairs[int(sel)%len(pairs)]
				lay := BuildIndexed(v, tau, nil)
				want := lay.CanAugment()
				if hk := hkCanAugment(lay); hk != want {
					t.Fatalf("round %d tau %+v: CanAugment %v, HK %v", round, tau, want, hk)
				}
				if got := v.CanAugmentPair(tau, s); got != want {
					t.Fatalf("round %d tau %+v: CanAugmentPair %v, CanAugment %v (K=%d, %d Y, %d interior X)",
						round, tau, got, want, lay.K, len(lay.Y), len(lay.InteriorX))
				}
			}
		}
	})
}
