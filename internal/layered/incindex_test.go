package layered

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// testClassWeights builds a descending class-weight list around the
// instance scale: the geometric sweep plus the anchored family, the same
// shape core.ClassWeights produces (not imported to keep the package
// dependency direction).
func testClassWeights(edges []graph.Edge, prm Params) []float64 {
	maxW, minW := 0.0, 0.0
	for _, e := range edges {
		w := float64(e.W)
		if w > maxW {
			maxW = w
		}
		if minW == 0 || w < minW {
			minW = w
		}
	}
	if maxW <= 0 {
		return nil
	}
	var ws []float64
	for w := maxW * float64(prm.MaxLayers+1); w >= minW/4; w /= 2 {
		ws = append(ws, w)
	}
	maxU, _ := prm.Units()
	for u := 2; u <= maxU; u++ {
		ws = append(ws, maxW/(prm.Granularity*float64(u)))
	}
	// Descending order is the one structural requirement of IncIndex (the
	// per-edge live classes must form contiguous bands).
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j] > ws[j-1]; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	return ws
}

// assertViewMatchesBucket compares one class view of the incremental index
// against a freshly rebuilt BucketIndex: identical edge sequences for every
// unit the enumeration can query, identical counts, and identical masks up
// to the documented bMask bits 0 and 1.
func assertViewMatchesBucket(t testing.TB, v *IncView, ref *BucketIndex, prm Params) {
	t.Helper()
	maxU, _ := prm.Units()
	for u := 1; u <= maxU; u++ {
		if got, want := v.A(u), ref.A(u); !edgeSlicesEqual(got, want) {
			t.Fatalf("A(%d): incremental %v != rebuild %v", u, got, want)
		}
		if got, want := v.ACount(u), ref.ACount(u); got != want {
			t.Fatalf("ACount(%d): %d != %d", u, got, want)
		}
	}
	for u := 2; u <= maxU; u++ {
		if got, want := v.B(u), ref.B(u); !edgeSlicesEqual(got, want) {
			t.Fatalf("B(%d): incremental %v != rebuild %v", u, got, want)
		}
		if got, want := v.BCount(u), ref.BCount(u); got != want {
			t.Fatalf("BCount(%d): %d != %d", u, got, want)
		}
	}
	ia, ib, iok := v.Masks()
	ra, rb, rok := ref.Masks()
	if iok != rok {
		t.Fatalf("Masks ok: %v != %v", iok, rok)
	}
	if iok {
		if ia != ra {
			t.Fatalf("aMask: %b != %b", ia, ra)
		}
		if ib != rb&^0b11 {
			t.Fatalf("bMask: %b != %b (bits >= 2)", ib, rb&^0b11)
		}
	}
}

func edgeSlicesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mutateMatching toggles the matched status of edge e: a matched pair is
// removed, a pair with both endpoints free is added — occasionally with a
// perturbed weight, exercising the convention that the matching's weight,
// not the graph's, feeds the τA windows.
func mutateMatching(m *graph.Matching, e graph.Edge, perturb byte) {
	if m.Has(e.U, e.V) {
		if err := m.Remove(e.U, e.V); err != nil {
			panic(err)
		}
		return
	}
	if m.IsMatched(e.U) || m.IsMatched(e.V) {
		return
	}
	if perturb%4 == 0 {
		e.W = graph.Weight(perturb) + 1
	}
	if err := m.Add(e); err != nil {
		panic(err)
	}
}

// TestIncIndexMatchesBucketIndex drives an IncIndex through simulated
// rounds — matching deltas, fresh bipartitions — and asserts every class
// view equals a from-scratch BucketIndex rebuild, and that BuildIndexed
// over the view reproduces the rebuild's layered graph exactly.
func TestIncIndexMatchesBucketIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(24)
		inst := graph.RandomGraph(n, 3*n, graph.Weight(1<<(3+rng.Intn(5))), rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[trial%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)

		for round := 0; round < 5; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
			}
			par := Parametrize(n, edges, m, rng)
			inc.BeginRound(par)
			for c, w := range ws {
				ref := NewBucketIndex(par, w, prm)
				v := inc.View(c)
				assertViewMatchesBucket(t, v, ref, prm)

				aMask, bMask, ok := ref.Masks()
				if !ok {
					continue
				}
				pairs := EnumerateGoodPairsMasked(prm, aMask, bMask, 40)
				for _, tau := range pairs {
					layRef := BuildIndexed(ref, tau, nil)
					if got, want := v.ProbeY(tau), len(layRef.Y) > 0; got != want {
						t.Fatalf("trial %d round %d class %d: ProbeY=%v, want %v (tau %+v)",
							trial, round, c, got, want, tau)
					}
					layInc := BuildIndexed(v, tau, nil)
					if layInc.NumV != layRef.NumV ||
						!edgeSlicesEqual(layInc.X, layRef.X) ||
						!edgeSlicesEqual(layInc.Y, layRef.Y) ||
						!edgeSlicesEqual(layInc.InteriorX, layRef.InteriorX) {
						t.Fatalf("trial %d round %d class %d tau %+v: layered graphs differ",
							trial, round, c, tau)
					}
				}
			}
		}
	}
}

// yReference is the grouped Y table and probe rows of one (class, τB unit)
// built from first principles: each edge of the BucketIndex B(u) bucket is
// oriented R→L and classified by its endpoints — the τA unit of a matched
// crossing endpoint (read off the BucketIndex A buckets), 0 for a free R
// endpoint, FreeLBit for a free L endpoint, dead for an endpoint matched
// off the bipartition. groups keeps bucket order within each (row, col).
type yReference struct {
	rows   []uint64
	groups map[[2]int][]graph.Edge
}

func bucketYReference(par *Parametrized, ref *BucketIndex, u, maxU int) yReference {
	unit := make([]int, par.N)
	for a := 1; a <= maxU; a++ {
		for _, e := range ref.A(a) {
			unit[e.U], unit[e.V] = a, a
		}
	}
	classify := func(v, free int) (int, bool) {
		switch {
		case unit[v] > 0:
			return unit[v], true
		case !par.M.IsMatched(v):
			return free, true
		}
		return 0, false
	}
	y := yReference{rows: make([]uint64, maxU+1), groups: map[[2]int][]graph.Edge{}}
	for _, e := range ref.B(u) {
		if !par.Side[e.U] {
			e.U, e.V = e.V, e.U
		}
		row, okR := classify(e.U, 0)
		col, okL := classify(e.V, FreeLBit)
		if !okR || !okL {
			continue
		}
		y.rows[row] |= 1 << uint(col)
		y.groups[[2]int{row, col}] = append(y.groups[[2]int{row, col}], e)
	}
	return y
}

// assertLayerRowsMatch checks the view's full LayerRow grid of bucket unit
// u against the reference rows.
func assertLayerRowsMatch(t testing.TB, v *IncView, u int, y yReference) {
	t.Helper()
	for a, want := range y.rows {
		if got := v.LayerRow(u, a); got != want {
			t.Fatalf("class %d LayerRow(%d, %d) = %b, want %b", v.c, u, a, got, want)
		}
	}
}

// assertYGroupsMatchRef checks every (row, col) group of bucket unit u
// against the reference, content and order.
func assertYGroupsMatchRef(t testing.TB, v *IncView, u int, y yReference) {
	t.Helper()
	maxU := len(y.rows) - 1
	for row := 0; row <= maxU; row++ {
		for col := 0; col <= FreeLBit; col++ {
			if col > maxU && col != FreeLBit {
				continue
			}
			if got, want := v.YGroup(u, row, col), y.groups[[2]int{row, col}]; !edgeSlicesEqual(got, want) {
				t.Fatalf("class %d YGroup(%d, %d, %d) = %v, want %v", v.c, u, row, col, got, want)
			}
		}
	}
}

// touchY materialises a view's unit-u Y tables through one of the three
// entry points that can touch them first: LayerRow (the enumeration),
// YGroup (the builds and the index probe) or B (the ungrouped build and the
// digests).
func touchY(v *IncView, u, how int) {
	switch how {
	case 0:
		v.LayerRow(u, 0)
	case 1:
		v.YGroup(u, 0, FreeLBit)
	default:
		v.B(u)
	}
}

// assertYTablesMatchBucket holds every class view of inc to the reference,
// first touching each (class, unit) through entry point (order + c) mod 3,
// so one call spreads the three first-touch orders over the classes.
func assertYTablesMatchBucket(t testing.TB, inc *IncIndex, par *Parametrized, ws []float64, prm Params, order int) {
	t.Helper()
	maxU, _ := prm.Units()
	for c, w := range ws {
		v := inc.View(c)
		ref := NewBucketIndex(par, w, prm)
		for u := 2; u <= maxU; u++ {
			touchY(v, u, (order+c)%3)
			y := bucketYReference(par, ref, u, maxU)
			assertLayerRowsMatch(t, v, u, y)
			assertYGroupsMatchRef(t, v, u, y)
			if got, want := v.B(u), ref.B(u); !edgeSlicesEqual(got, want) {
				t.Fatalf("class %d B(%d): incremental %v != rebuild %v", c, u, got, want)
			}
		}
	}
}

// TestLayerRowMatchesBucketReference pins the probe rows the pair
// enumeration prunes with, and the grouped Y tables they are read off, to a
// reference built straight from the BucketIndex buckets (bucketYReference)
// for every (class, bUnit, aUnit). It covers fresh indexes, one index
// chained through BeginRound, and — on odd trials — that index absorbing
// edit batches between rounds, each under all three first-touch orders
// (LayerRow, YGroup or B first). One more fresh index per round has its
// classes materialised concurrently, one goroutine each, as the class
// sweep runs them; under -race that checks the scan's scratch is private
// to its class.
func TestLayerRowMatchesBucketReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(20)
		maxW := graph.Weight(1 << (3 + rng.Intn(4)))
		g := graph.RandomGraph(n, 3*n, maxW, rng).G
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125}[trial%3]}.WithDefaults()
		maxU, _ := prm.Units()
		ws := testClassWeights(g.Edges(), prm)
		chained := NewIncIndex(n, g.Edges(), ws, prm)
		m := graph.NewMatching(n)
		for round := 0; round < 6; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				if g.M() > 0 {
					mutateMatching(m, g.EdgeAt(rng.Intn(g.M())), byte(rng.Intn(256)))
				}
			}
			if trial%2 == 1 && round > 0 {
				if err := chained.BeginEdits(); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 1+rng.Intn(4); k++ {
					applyRandomEdit(t, g, m, chained, maxW, rng)
				}
				chained.EndEdits()
			}
			par := Parametrize(n, g.Edges(), m, rng)
			if err := chained.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			assertYTablesMatchBucket(t, chained, par, ws, prm, round)
			for order := 0; order < 4; order++ {
				fresh := NewIncIndex(n, g.Edges(), ws, prm)
				if err := fresh.BeginRound(par); err != nil {
					t.Fatal(err)
				}
				if order == 3 {
					var wg sync.WaitGroup
					for c := range ws {
						wg.Add(1)
						go func(v *IncView) {
							defer wg.Done()
							for u := 2; u <= maxU; u++ {
								touchY(v, u, c%3)
							}
						}(fresh.View(c))
					}
					wg.Wait()
				}
				assertYTablesMatchBucket(t, fresh, par, ws, prm, order)
			}
		}
	}
}

// TestYGroupsAllocFree pins the round scan's buffer reuse: after a warm
// round, re-materialising a (class, unit) in a later round with the same
// bucket sizes allocates nothing. The rounds alternate between a
// bipartition and its mirror image, which keeps every bucket's size but
// flips every member's orientation, so the grouped table cannot be
// revalidated across rounds and each round rescans the bucket.
func TestYGroupsAllocFree(t *testing.T) {
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	par := probeSetup(t, [][2]int{{1, 2}, {1, 4}, {5, 2}, {3, 4}, {5, 0}, {3, 2}})
	edges := append(append([]graph.Edge(nil), par.A...), par.B...)
	mirror := make([]bool, par.N)
	for v := range mirror {
		mirror[v] = !par.Side[v]
	}
	pars := []*Parametrized{par, ParametrizeWithSide(par.N, edges, par.M, mirror)}
	inc := NewIncIndex(par.N, edges, []float64{8}, p)
	v := inc.View(0)
	round := 0
	touch := func() {
		round++
		if err := inc.BeginRound(pars[round%2]); err != nil {
			t.Fatal(err)
		}
		v.LayerRow(4, 0)
		v.YGroup(4, 0, FreeLBit)
		v.B(4)
	}
	touch()
	touch()
	if n := testing.AllocsPerRun(100, touch); n != 0 {
		t.Fatalf("re-materialising a warm (class, unit) allocates %.1f times per round", n)
	}
	maxU, _ := p.Units()
	for _, q := range pars {
		if err := inc.BeginRound(q); err != nil {
			t.Fatal(err)
		}
		y := bucketYReference(q, NewBucketIndex(q, 8, p), 4, maxU)
		assertLayerRowsMatch(t, v, 4, y)
		assertYGroupsMatchRef(t, v, 4, y)
	}
}

// TestIncIndexPairKeySharing checks the cache-key contract on a workload
// engineered to produce cross-class duplicates (a single repeated weight):
// equal PairKeys must mean equal layered graphs, and at least one pair of
// classes must actually share a key.
func TestIncIndexPairKeySharing(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i += 2 {
		g.MustAddEdge(i, i+1, 64)
		g.MustAddEdge(i, (i+3)%8, 64)
	}
	edges := g.Edges()
	prm := Params{}.WithDefaults()
	// W=64 and W=60 put weight-64 edges in the same unmatched unit
	// (floor(64/8) = floor(64/7.5) = 8), so their single good pair shares
	// one layered graph; W=128 windows the edges at unit 4 and must not.
	ws := []float64{128, 64, 60}
	inc := NewIncIndex(8, edges, ws, prm)
	m := graph.NewMatching(8)
	rng := rand.New(rand.NewSource(3))
	par := Parametrize(8, edges, m, rng)
	inc.BeginRound(par)

	type keyed struct {
		c   int
		tau TauPair
	}
	byKey := map[string][]keyed{}
	for c := range ws {
		v := inc.View(c)
		aMask, bMask, _ := v.Masks()
		for _, tau := range EnumerateGoodPairsMasked(prm, aMask, bMask, 100) {
			key := string(v.PairKey(tau, nil))
			byKey[key] = append(byKey[key], keyed{c: c, tau: tau})
		}
	}
	shared := false
	for _, ks := range byKey {
		classes := map[int]bool{}
		for _, k := range ks {
			classes[k.c] = true
		}
		if len(classes) > 1 {
			shared = true
		}
		first := BuildIndexed(inc.View(ks[0].c), ks[0].tau, nil)
		for _, k := range ks[1:] {
			lay := BuildIndexed(inc.View(k.c), k.tau, nil)
			if lay.NumV != first.NumV ||
				!edgeSlicesEqual(lay.X, first.X) ||
				!edgeSlicesEqual(lay.Y, first.Y) {
				t.Fatalf("equal PairKey but different layered graphs (classes %d vs %d)",
					ks[0].c, k.c)
			}
		}
	}
	if !shared {
		t.Error("uniform-weight workload produced no cross-class key sharing")
	}
}

// FuzzIncrementalIndex mutates edge weights and matched status and
// cross-checks the three builders against each other: the incremental
// views against from-scratch BucketIndex rebuilds, and BuildIndexed over
// both against the dense-id reference builder of reference.go. Each round
// it also holds the grouped Y tables and the full LayerRow grid to
// bucketYReference, with ProbeY touching the tables before the B/YGroup
// reads on even rounds and after them on odd ones.
func FuzzIncrementalIndex(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), uint8(1), []byte{0xff, 0x80, 0x10, 9, 9, 9})
	f.Add(int64(3), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, granSel uint8, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		inst := graph.RandomGraph(n, 2*n, 1<<6, rng)
		edges := inst.G.Edges()
		if len(edges) == 0 {
			t.Skip()
		}
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)

		// The script drives rounds: each byte pair toggles one edge's
		// matched status (with occasional weight perturbation), a zero byte
		// ends the round.
		round := func(start int) int {
			i := start
			for ; i+1 < len(script) && script[i] != 0; i += 2 {
				mutateMatching(m, edges[int(script[i])%len(edges)], script[i+1])
			}
			return i + 1
		}
		pos := 0
		for r := 0; r < 4; r++ {
			pos = round(pos)
			side := make([]bool, n)
			for v := range side {
				side[v] = rng.Intn(2) == 1
			}
			par := ParametrizeWithSide(n, edges, m, side)
			inc.BeginRound(par)
			for c, w := range ws {
				if c%3 != r%3 { // subsample classes per round for speed
					continue
				}
				ref := NewBucketIndex(par, w, prm)
				v := inc.View(c)
				aMask, bMask, ok := ref.Masks()
				var pairs []TauPair
				if ok {
					pairs = EnumerateGoodPairsMasked(prm, aMask, bMask, 12)
				}
				// ProbeY materialises the Y tables through the probe rows, the
				// B and YGroup reads through the bucket scan; alternate which
				// one touches each (class, unit) first.
				probes := func() {
					for _, tau := range pairs {
						if got, want := v.ProbeY(tau), len(BuildIndexed(ref, tau, nil).Y) > 0; got != want {
							t.Fatalf("ProbeY=%v, want %v (tau %+v, W=%v)", got, want, tau, w)
						}
					}
				}
				maxU, _ := prm.Units()
				reads := func() {
					assertViewMatchesBucket(t, v, ref, prm)
					if v.YGroupsOK() {
						for u := 2; u <= maxU; u++ {
							assertYGroupsMatchRef(t, v, u, bucketYReference(par, ref, u, maxU))
						}
					}
				}
				if r%2 == 0 {
					probes()
					reads()
				} else {
					reads()
					probes()
				}
				if _, ok := v.Oracle(); ok {
					for u := 2; u <= maxU; u++ {
						assertLayerRowsMatch(t, v, u, bucketYReference(par, ref, u, maxU))
					}
				}

				for _, tau := range pairs {
					layRef := BuildIndexed(ref, tau, nil)
					layInc := BuildIndexed(v, tau, nil)
					if layInc.NumV != layRef.NumV ||
						!edgeSlicesEqual(layInc.X, layRef.X) ||
						!edgeSlicesEqual(layInc.Y, layRef.Y) {
						t.Fatalf("incremental build differs (tau %+v, W=%v)", tau, w)
					}
					dense := BuildReference(par, tau, w, prm)
					assertSameEdges(t, "X", layRef, layRef.X, dense, dense.X)
					assertSameEdges(t, "Y", layRef, layRef.Y, dense, dense.Y)
					assertSameEdges(t, "InteriorX", layRef, layRef.InteriorX, dense, dense.InteriorX)
				}
			}
		}
	})
}
