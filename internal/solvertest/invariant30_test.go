package solvertest

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// Invariant 30 (index-level augmentability probe): for every surviving
// τ-pair of a class view whose grouped Y tables are available,
// view.CanAugmentPair(tau, s) equals CanAugment of the pair's layered
// graph — the Invariant 29 answer — without building it. The default
// amortised solve path closes the pairs it rejects before BuildDelta runs.

// probeSweep drives every workload family through rounds of a reference
// runner. Each round begins a test-owned IncIndex on a fresh bipartition
// and sweeps its classes over workers goroutines (class c on worker
// c mod workers), building every surviving pair as mode says and holding
// the index probe to the build's CanAugment. As in core's class sweep, the
// probe runs on the worker's arena, which is also the build arena unless
// mode gives each class its own chain arena. With mutate, a random edit
// batch lands on the graph, the matching and the index (through the edit
// protocol) before every round after the first. It returns how many
// probed pairs could augment and how many could not, the builds chained
// across a round boundary, and the edits applied.
func probeSweep(t *testing.T, seed int64, mode chainMode, workers int, mutate bool) (open, closed, links, edits int) {
	t.Helper()
	prm := layered.Params{}.WithDefaults()
	var mu sync.Mutex
	for _, w := range Workloads(rand.New(rand.NewSource(seed))) {
		g := w.G.Clone()
		weights := core.ClassWeights(g, 2, prm)
		if len(weights) == 0 {
			continue
		}
		inc := layered.NewIncIndex(g.N(), g.Edges(), weights, prm)
		m := w.cloneInitial()
		runner := core.NewRunner(g, optsWithRng(core.Options{}, seed+1))
		parRng := rand.New(rand.NewSource(seed + 2))
		editRng := rand.New(rand.NewSource(seed + 3))
		newArena := func() *layered.Scratch {
			s := layered.NewScratch()
			s.EnableDeltaBaseline()
			return s
		}
		arenas := make([]*layered.Scratch, len(weights))
		tails := make([]*layered.Layered, len(weights))
		var stats core.Stats
		for round := 0; round < 3; round++ {
			if mutate && round > 0 {
				edits += applyNotedBatch(t, runner, g, m, inc, &stats,
					RandomBatch(g, 4, max(g.MaxWeight(), 1), editRng))
				if ws := core.ClassWeights(g, 2, prm); !slices.Equal(ws, weights) {
					// The edits moved the class ladder: the index geometry
					// is stale, so rebuild it as core's reset does.
					weights = ws
					inc = layered.NewIncIndex(g.N(), g.Edges(), weights, prm)
					arenas = make([]*layered.Scratch, len(weights))
					tails = make([]*layered.Layered, len(weights))
				}
			}
			if _, err := runner.Round(m, &stats); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			par := layered.Parametrize(g.N(), g.Edges(), m, parRng)
			if err := inc.BeginRound(par); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					shared := newArena()
					enum := layered.NewPairScratch()
					nOpen, nClosed, nLinks := 0, 0, 0
					for c := wk; c < inc.Classes(); c += workers {
						view := inc.View(c)
						aMask, bMask, _ := view.Masks()
						orc, ok := view.Oracle()
						if !ok || !view.YGroupsOK() {
							t.Errorf("%s: grouped tables unavailable at default granularity", w.Name)
							return
						}
						pairs, _ := layered.EnumerateSurvivingPairs(prm, aMask, bMask, 800, orc, enum)
						scratch := shared
						var prev *layered.Layered
						if mode == chainCross {
							if arenas[c] == nil {
								arenas[c] = newArena()
							}
							scratch, prev = arenas[c], tails[c]
						}
						for _, tau := range pairs {
							var lay *layered.Layered
							if prev != nil && mode != chainIndexed {
								var err error
								if lay, _, err = layered.BuildDelta(view, prev, tau, scratch, 1); err == nil && prev.Par != par {
									nLinks++
								}
							}
							if lay == nil {
								lay = layered.BuildIndexed(view, tau, scratch)
							}
							prev = lay
							want := lay.CanAugment()
							if got := view.CanAugmentPair(tau, shared); got != want {
								t.Errorf("%s round %d class %d tau %+v: CanAugmentPair %v, CanAugment %v (K=%d, %d Y, %d interior X)",
									w.Name, round, c, tau, got, want, lay.K, len(lay.Y), len(lay.InteriorX))
							}
							if want {
								nOpen++
							} else {
								nClosed++
							}
						}
						if mode == chainCross {
							tails[c] = prev
						}
					}
					mu.Lock()
					open, closed, links = open+nOpen, closed+nClosed, links+nLinks
					mu.Unlock()
				}(wk)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	return open, closed, links, edits
}

// applyNotedBatch applies batch one edit at a time through runner (which
// mutates g and m) and notes each edit on inc through the edit protocol,
// as core's amortised ApplyMutations does. It returns the edits applied.
func applyNotedBatch(t *testing.T, runner *core.Runner, g *graph.Graph, m *graph.Matching,
	inc *layered.IncIndex, stats *core.Stats, batch *core.MutationBatch) int {
	t.Helper()
	if err := inc.BeginEdits(); err != nil {
		t.Fatal(err)
	}
	defer inc.EndEdits()
	for _, op := range batch.Ops() {
		i, _ := g.FindEdge(op.U, op.V)
		last := g.M() - 1
		one := (&core.MutationBatch{}).Extend([]core.Mutation{op})
		if err := runner.ApplyMutations(one, m, stats); err != nil {
			t.Fatalf("edit %+v: %v", op, err)
		}
		switch op.Op {
		case core.MutInsert:
			inc.NoteInsert(g.Edges())
		case core.MutDelete:
			moved := last
			if i == last {
				moved = -1
			}
			inc.NoteRemove(i, moved, g.Edges())
		case core.MutReweight:
			inc.NoteReweight(i, g.Edges())
		}
	}
	return batch.Len()
}

// TestIndexProbeMatchesBuild is the pair half of Invariant 30: on every
// surviving τ-pair of every family, the index probe agrees with the
// CanAugment of the pair's build, whether built from scratch, delta-chained
// within a class-round, chained across the bipartition redraw, or chained
// across edit batches the index absorbed — with the class sweep on one
// worker and on four (the CI race job runs the latter under the detector).
// Both answers, the cross-round links and the edits must be exercised.
func TestIndexProbeMatchesBuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			name   string
			mode   chainMode
			mutate bool
		}{
			{"fresh", chainIndexed, false},
			{"round-chain", chainRound, false},
			{"cross-round", chainCross, false},
			{"mutated", chainCross, true},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				open, closed, links, edits := probeSweep(t, 30, c.mode, workers, c.mutate)
				if open == 0 || closed == 0 {
					t.Fatalf("index probe not exercised: %d pairs can augment, %d cannot", open, closed)
				}
				if c.mode == chainCross && links == 0 {
					t.Fatal("no build chained across a round boundary")
				}
				if c.mutate && edits == 0 {
					t.Fatal("no edit reached the index")
				}
				t.Logf("%d pairs can augment, %d closed, %d cross-round links, %d edits", open, closed, links, edits)
			})
		}
	}
}
