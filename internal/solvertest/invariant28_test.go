package solvertest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// Invariant 28 (walk count): for an exact maximum matching M' of L', the
// symmetric difference ML' Δ M' holds exactly |M'| − |ML'| augmenting
// walks, |ML'| = len(InteriorX). ML' ⊆ L' and M' is maximum, so no
// component is M'-augmenting (Berge); every other component is balanced,
// and each ML'-augmenting path carries one more M' edge than ML' edges.
// The amortised solve path rests its cardinality gate on this count: a
// retained or repaired solve with Size() == len(InteriorX) skips the fill,
// ML' and the walk scan.

// forEachSolvedPair drives every workload family through a few rounds and,
// per class, builds every surviving τ-pair delta-chained through one arena,
// as the amortised class sweep does. fn sees each build with a non-empty
// L' together with its bipartite view.
func forEachSolvedPair(t *testing.T, seed int64, fn func(name string, lay *layered.Layered, bip *bipartite.Bip)) {
	t.Helper()
	prm := layered.Params{}.WithDefaults()
	for _, w := range Workloads(rand.New(rand.NewSource(seed))) {
		weights := core.ClassWeights(w.G, 2, prm)
		if len(weights) == 0 {
			continue
		}
		inc := layered.NewIncIndex(w.G.N(), w.G.Edges(), weights, prm)
		m := w.cloneInitial()
		runner := core.NewRunner(w.G, optsWithRng(core.Options{}, seed+1))
		parRng := rand.New(rand.NewSource(seed + 2))
		scratch := layered.NewScratch()
		scratch.EnableDeltaBaseline()
		enum := layered.NewPairScratch()
		var stats core.Stats
		for round := 0; round < 3; round++ {
			if _, err := runner.Round(m, &stats); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			par := layered.Parametrize(w.G.N(), w.G.Edges(), m, parRng)
			if err := inc.BeginRound(par); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			for c := 0; c < inc.Classes(); c++ {
				view := inc.View(c)
				aMask, bMask, ok := view.Masks()
				if !ok {
					t.Fatalf("%s: masks unavailable at default granularity", w.Name)
				}
				orc, ok := view.Oracle()
				if !ok {
					t.Fatalf("%s: oracle unavailable at default granularity", w.Name)
				}
				pairs, _ := layered.EnumerateSurvivingPairs(prm, aMask, bMask, 800, orc, enum)
				var prev *layered.Layered
				for _, tau := range pairs {
					var lay *layered.Layered
					if prev != nil {
						lay, _, _ = layered.BuildDelta(view, prev, tau, scratch, 1)
					}
					if lay == nil {
						lay = layered.BuildIndexed(view, tau, scratch)
					}
					prev = lay
					if len(lay.Y) == 0 {
						continue
					}
					lp := lay.LPrimeEdges()
					if len(lp) == 0 {
						continue
					}
					fn(w.Name, lay, &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp})
				}
			}
		}
	}
}

// countWalks is the number of augmenting walks AugmentingWalks emits.
func countWalks(lay *layered.Layered, mPrime *graph.Matching) int {
	n := 0
	lay.AugmentingWalks(mPrime, func(layered.Walk) { n++ })
	return n
}

// TestWalkCountExactSolve is the pair half of Invariant 28: on every
// surviving τ-pair of every family, the retained or repaired exact solve
// (the chain repairState runs) yields exactly Size() − len(InteriorX)
// augmenting walks, and Size() is the cardinality of the filled matching.
// Both sides of the gate and the repair path must be exercised.
func TestWalkCountExactSolve(t *testing.T) {
	hk := bipartite.NewScratch()
	var baseTok, baseSeq uint64
	gated, walked, repaired := 0, 0, 0
	forEachSolvedPair(t, 28, func(name string, lay *layered.Layered, bip *bipartite.Bip) {
		var res bipartite.Result
		if d := lay.Delta; d.Valid && baseTok != 0 && d.BaseSeq == baseSeq {
			var err error
			res, err = bipartite.RepairHK(bip, hk, bipartite.RepairInfo{
				BaseToken: baseTok, KeptVerts: d.KeptIDs, KeptEdges: d.KeptLPrime,
			})
			if err != nil {
				t.Fatalf("%s: RepairHK: %v", name, err)
			}
			repaired++
		} else {
			res = bipartite.HopcroftKarpRetained(bip, hk)
		}
		baseTok, baseSeq = hk.SolveToken(), lay.BuildSeq()
		if hk.Size() != res.M.Size() {
			t.Fatalf("%s: Size() = %d, filled matching has %d edges", name, hk.Size(), res.M.Size())
		}
		want := res.M.Size() - len(lay.InteriorX)
		if got := countWalks(lay, res.M); got != want {
			t.Fatalf("%s: %d augmenting walks, want |M'| − |ML'| = %d − %d = %d",
				name, got, res.M.Size(), len(lay.InteriorX), want)
		}
		if want == 0 {
			gated++
		} else {
			walked++
		}
	})
	if gated == 0 || walked == 0 || repaired == 0 {
		t.Fatalf("walk-count net not exercised: %d gated, %d walked, %d repaired solves", gated, walked, repaired)
	}
}

// TestWalkCountApproxControl is the control of Invariant 28: the count
// needs an exact M'. Any matching of L' bounds the walk count from below
// by |M'| − |ML'| (the M'-augmenting components make up the excess), which
// the (1−δ) solve of bipartite.Approx (δ = 0.5) must satisfy. The bound is
// not an equality once M' falls short of maximum: dropping k edges shared
// with ML' from an exact M' with k walks gives a valid — merely
// non-maximum — matching of size |ML'| that still yields all k walks, each
// dropped edge becoming an M'-augmenting component of its own. A gate on
// a non-exact branch would lose exactly those walks.
func TestWalkCountApproxControl(t *testing.T) {
	dropped := 0
	forEachSolvedPair(t, 28, func(name string, lay *layered.Layered, bip *bipartite.Bip) {
		mApprox := bipartite.Approx(bip, 0.5).M
		if got, floor := countWalks(lay, mApprox), mApprox.Size()-len(lay.InteriorX); got < floor {
			t.Fatalf("%s: approximate solve gave %d augmenting walks, under |M'| − |ML'| = %d", name, got, floor)
		}

		exact := bipartite.HopcroftKarp(bip).M
		k := exact.Size() - len(lay.InteriorX)
		if k == 0 {
			return
		}
		short := exact.Clone()
		removed := 0
		for _, e := range lay.InteriorX {
			if removed < k && short.Has(e.U, e.V) {
				if err := short.Remove(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
		if removed < k {
			return
		}
		if short.Size() != len(lay.InteriorX) {
			t.Fatalf("%s: shortened matching has %d edges, want |ML'| = %d", name, short.Size(), len(lay.InteriorX))
		}
		if got := countWalks(lay, short); got != k {
			t.Fatalf("%s: non-maximum M' of size |ML'| gave %d augmenting walks, want %d", name, got, k)
		}
		dropped++
	})
	if dropped == 0 {
		t.Fatalf("no pair admitted a non-maximum M' of size |ML'|: the control shows nothing")
	}
}

// approxControlPath pins the pipeline output of an Options.Solver backed
// by bipartite.Approx, generated before the cardinality gate existed. That
// branch never takes the gate, so the lines move only with the tie-break
// generation, together with the witness; regenerate both with
//
//	UPDATE_GOLDEN=1 go test ./internal/solvertest/ -run 'TestWitnessGolden|TestWalkCountApproxPipeline'

const approxControlPath = "testdata/approx-control.golden"

// approxControlLines runs the amortised pipeline with the approximate
// solver over every family, at Workers 1 and 4, and reduces each run to a
// witness-style line.
func approxControlLines(t *testing.T) []string {
	var lines []string
	for _, workers := range []int{1, 4} {
		for _, w := range Workloads(rand.New(rand.NewSource(90))) {
			opts := optsWithRng(core.Options{
				Amortize: true, Workers: workers, Solver: core.ApproxSolver(0.5),
			}, 91)
			r := core.NewRunner(w.G, opts)
			m := w.cloneInitial()
			h := fnv.New64a()
			var stats core.Stats
			for round := 0; round < 5; round++ {
				gain, err := r.Round(m, &stats)
				if err != nil {
					t.Fatalf("%s round %d: %v", w.Name, round, err)
				}
				fmt.Fprintf(h, "g%d=%d;", round, gain)
			}
			for _, e := range m.Edges() {
				fmt.Fprintf(h, "%d-%d:%d;", e.U, e.V, e.W)
			}
			if stats.RepairSolves != 0 {
				t.Fatalf("%s: approximate solver took the repair path (%d solves)", w.Name, stats.RepairSolves)
			}
			lines = append(lines, fmt.Sprintf("%s workers=%d weight=%d edges=%d calls=%d applied=%d hash=%016x",
				w.Name, workers, m.Weight(), len(m.Edges()), stats.SolverCalls, stats.AppliedAugmentations, h.Sum64()))
		}
	}
	return lines
}

// TestWalkCountApproxPipeline asserts the Options.Solver branch still
// reaches AugmentingWalks on every solve: a branch that skipped the
// extraction would change these lines (TestWalkCountApproxControl shows
// why it must not skip on |M'| alone).
func TestWalkCountApproxPipeline(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# approximate-solver control · tie-break generation %d\n", tieBreakGeneration)
	buf.WriteString(strings.Join(approxControlLines(t), "\n"))
	buf.WriteByte('\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(approxControlPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(approxControlPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("approximate-solver output drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			approxControlPath, buf.Bytes(), want)
	}
}

// TestWalkCountGatePipeline is the pipeline half of Invariant 28: the
// gated repair path (RepairCutover 0) against the ungated fresh-solve path
// (RepairCutover −1, every solve walked) over every family — bit-identical
// matchings round by round at Workers 1 and 4. At Workers 1 every Stats
// counter apart from the repair path's own must agree too; at Workers 4
// the cross-class cache's hit count depends on which class of a round
// reaches a shared pair first, so only the worker-invariant totals are
// compared there.
func TestWalkCountGatePipeline(t *testing.T) {
	repairOnly := map[string]bool{
		"repair-solves": true, "repair-edges-kept": true, "cross-round-repairs": true,
	}
	repaired := 0
	for _, workers := range []int{1, 4} {
		for _, w := range Workloads(rand.New(rand.NewSource(28))) {
			sOff, sOn := AssertBitIdentical(t, w,
				core.Options{Amortize: true, Workers: workers, RepairCutover: -1},
				core.Options{Amortize: true, Workers: workers},
				29, 5)
			repaired += sOn.RepairSolves
			if workers > 1 {
				if sOff.SolverCalls+sOff.CacheHits != sOn.SolverCalls+sOn.CacheHits ||
					sOff.AppliedAugmentations != sOn.AppliedAugmentations {
					t.Errorf("%s workers %d: calls+hits %d vs %d, applied %d vs %d", w.Name, workers,
						sOff.SolverCalls+sOff.CacheHits, sOn.SolverCalls+sOn.CacheHits,
						sOff.AppliedAugmentations, sOn.AppliedAugmentations)
				}
				continue
			}
			off, on := sOff.Fields(), sOn.Fields()
			for i := range off {
				if !repairOnly[off[i].Name] && off[i].Value != on[i].Value {
					t.Errorf("%s: %s %d (ungated) vs %d (gated)",
						w.Name, off[i].Name, off[i].Value, on[i].Value)
				}
			}
		}
	}
	if repaired == 0 {
		t.Fatalf("the gated runs never repaired")
	}
}
