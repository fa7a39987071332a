package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// engine re-executes core.Runner's amortised rounds from the public entry
// points of the layered, bipartite and graph packages, timing each call
// from outside the program: the traced twin of the untraced core.Solve and
// augserve ticks. It follows Runner.Round with the default options the
// workloads use (amortised index, cross-round delta chains, retained HK
// repair, dirty-class gate) except for the cross-class solve cache, which
// is transparent: a pair the cache would have served is built and solved
// here, so the replay's solve count is SolverCalls + CacheHits and its
// matching is bit-identical to the untraced run's.
type engine struct {
	g       *graph.Graph
	m       *graph.Matching
	prm     layered.Params
	base    float64
	limit   int
	rng     *rand.Rand
	weights []float64
	inc     *layered.IncIndex
	ctxs    []classCtx

	used      []uint32 // class-level conflict set, stamped
	usedStamp uint32

	clock  stageClock
	counts stageCounts
}

// classCtx is the per-class state Runner keeps on its amortised context.
type classCtx struct {
	view    *layered.IncView
	enum    *layered.PairScratch
	scratch *layered.Scratch
	prevLay *layered.Layered
	hk      *bipartite.Scratch
	baseTok uint64
	baseSeq uint64
}

// stageClock accumulates wall time per pipeline stage.
type stageClock struct {
	index, enum, build, solve, walks, merge, apply time.Duration
}

func (c stageClock) sum() time.Duration {
	return c.index + c.enum + c.build + c.solve + c.walks + c.merge + c.apply
}

// stageCounts are the replay's own work counts, reconciled against Stats.
type stageCounts struct {
	layeredBuilt int // pairs charged as built (pruned and probe-skipped included), as Stats.LayeredBuilt
	builds       int // layered graphs actually constructed
	solves       int
	repairs      int
	phases       int
	rounds       int
}

// candidate is one projected augmentation with its gain.
type candidate struct {
	aug  graph.Augmentation
	gain graph.Weight
}

// newEngine prepares a replay over g starting from the empty matching,
// drawing bipartitions from rng exactly as a Runner with the same Options
// would.
func newEngine(g *graph.Graph, opts core.Options, rng *rand.Rand) (*engine, error) {
	prm := opts.Layered.WithDefaults()
	if !layered.CanIndexIncrementally(prm) {
		return nil, errors.New("replay: granularity too fine for the incremental index")
	}
	e := &engine{
		g: g, m: graph.NewMatching(g.N()), prm: prm, base: opts.ClassBase,
		limit: opts.MaxPairsPerClass, rng: rng,
	}
	if e.base <= 1 {
		e.base = 2 // core's default ClassBase
	}
	if e.limit <= 0 {
		e.limit = 800 // core's default MaxPairsPerClass
	}
	e.reset()
	return e, nil
}

// reset rebuilds the amortised context over the current graph, as
// NewRunner (and a ladder move in ApplyMutations) does.
func (e *engine) reset() {
	e.weights = core.ClassWeights(e.g, e.base, e.prm)
	e.inc = layered.NewIncIndex(e.g.N(), e.g.Edges(), e.weights, e.prm)
	e.ctxs = make([]classCtx, len(e.weights))
	for i := range e.ctxs {
		e.ctxs[i] = classCtx{view: e.inc.View(i), enum: layered.NewPairScratch()}
	}
}

// converge runs rounds under the stall policy Solve and Runner.Tick share:
// stop after maxRounds rounds, or after patience consecutive zero-gain
// rounds.
func converge(maxRounds, patience int, round func() (graph.Weight, error)) error {
	stalled := 0
	for r := 0; r < maxRounds && stalled < patience; r++ {
		gain, err := round()
		if err != nil {
			return err
		}
		if gain == 0 {
			stalled++
		} else {
			stalled = 0
		}
	}
	return nil
}

// round is one Algorithm 3 round: redraw the bipartition, sweep the dirty
// classes, merge their augmentations greedily from the heaviest class.
func (e *engine) round() (graph.Weight, error) {
	t0 := time.Now()
	par := layered.Parametrize(e.g.N(), e.g.Edges(), e.m, e.rng)
	if err := e.inc.BeginRound(par); err != nil {
		return 0, fmt.Errorf("replay: BeginRound: %w", err)
	}
	gateOK := e.inc.DirtyGateOK()
	e.clock.index += time.Since(t0)

	var all []graph.Augmentation
	for i := range e.weights {
		if gateOK && !e.inc.RoundDirty(i) {
			continue
		}
		all = append(all, e.class(par, i)...)
	}
	t1 := time.Now()
	gain, _ := graph.ApplyDisjoint(e.m, all)
	e.clock.merge += time.Since(t1)
	e.counts.rounds++
	return gain, nil
}

// class is Algorithm 4 for class i (core's classAugmentations on the
// amortised path).
func (e *engine) class(par *layered.Parametrized, i int) []graph.Augmentation {
	ac := &e.ctxs[i]
	if ac.scratch == nil {
		ac.scratch = layered.NewScratch()
		ac.hk = bipartite.NewScratch()
	}
	ac.scratch.EnableDeltaBaseline()
	ix := ac.view

	t := time.Now()
	var pairs []layered.TauPair
	preFiltered := false
	if aMask, bMask, ok := ix.Masks(); ok {
		if orc, ok := ix.Oracle(); ok {
			var pruned int
			pairs, pruned = layered.EnumerateSurvivingPairs(e.prm, aMask, bMask, e.limit, orc, ac.enum)
			e.counts.layeredBuilt += pruned
			preFiltered = true
		} else {
			pairs = layered.EnumerateGoodPairsMasked(e.prm, aMask, bMask, e.limit)
		}
	} else {
		pairs = layered.EnumerateGoodPairsLimited(e.prm,
			func(u int) bool { return u == 0 || ix.ACount(u) > 0 },
			func(u int) bool { return ix.BCount(u) > 0 },
			e.limit)
	}
	if len(pairs) > e.limit {
		pairs = pairs[:e.limit]
	}
	e.clock.enum += time.Since(t)

	var cands []candidate
	for _, tau := range pairs {
		e.counts.layeredBuilt++
		t = time.Now()
		if !preFiltered && !ix.ProbeY(tau) {
			e.clock.enum += time.Since(t)
			continue
		}
		var lay *layered.Layered
		if ac.prevLay != nil {
			if dl, _, err := layered.BuildDelta(ix, ac.prevLay, tau, ac.scratch, 1); err == nil {
				lay = dl
			}
		}
		if lay == nil {
			lay = layered.BuildIndexed(ix, tau, ac.scratch)
		}
		ac.prevLay = lay
		e.counts.builds++
		var lp []graph.Edge
		if len(lay.Y) > 0 {
			lp = lay.LPrimeEdges()
		}
		if len(lp) == 0 {
			e.clock.build += time.Since(t)
			continue
		}
		bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
		t1 := time.Now()
		e.clock.build += t1.Sub(t)

		mPrime := ac.solve(lay, bip, &e.counts)
		t2 := time.Now()
		e.clock.solve += t2.Sub(t1)

		lay.AugmentingWalks(mPrime, func(w layered.Walk) {
			if aug, gain, ok := ac.scratch.BestAugmentation(e.m, w); ok {
				cands = append(cands, candidate{aug: aug, gain: gain})
			}
		})
		e.clock.walks += time.Since(t2)
	}

	t = time.Now()
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return 0
	})
	e.resetUsed()
	var chosen []graph.Augmentation
	for _, c := range cands {
		if e.conflicts(c.aug) {
			continue
		}
		e.mark(c.aug)
		chosen = append(chosen, c.aug)
	}
	e.clock.merge += time.Since(t)
	return chosen
}

// solve is the retained exact solver with the incremental repair: a build
// delta-derived from the instance this arena solved last patches the
// retained CSR, anything else runs a full retained solve.
func (ac *classCtx) solve(lay *layered.Layered, bip *bipartite.Bip, n *stageCounts) *graph.Matching {
	n.solves++
	var res bipartite.Result
	repaired := false
	if d := lay.Delta; d.Valid && ac.baseTok != 0 && d.BaseSeq == ac.baseSeq && d.KeptLPrime >= 1 {
		r, err := bipartite.RepairHK(bip, ac.hk, bipartite.RepairInfo{
			BaseToken: ac.baseTok, KeptVerts: d.KeptIDs, KeptEdges: d.KeptLPrime,
		})
		if err == nil {
			res, repaired = r, true
			n.repairs++
		}
	}
	if !repaired {
		res = bipartite.HopcroftKarpRetained(bip, ac.hk)
	}
	ac.baseTok, ac.baseSeq = ac.hk.SolveToken(), lay.BuildSeq()
	n.phases += res.Phases
	return res.M
}

func (e *engine) resetUsed() {
	n := e.g.N()
	if len(e.used) < n {
		e.used = make([]uint32, n)
		e.usedStamp = 0
	}
	e.usedStamp++
	if e.usedStamp == 0 {
		clear(e.used)
		e.usedStamp = 1
	}
}

func (e *engine) conflicts(a graph.Augmentation) bool {
	for _, es := range [2][]graph.Edge{a.Add, a.Remove} {
		for _, x := range es {
			if e.used[x.U] == e.usedStamp || e.used[x.V] == e.usedStamp {
				return true
			}
		}
	}
	return false
}

func (e *engine) mark(a graph.Augmentation) {
	for _, es := range [2][]graph.Edge{a.Add, a.Remove} {
		for _, x := range es {
			e.used[x.U], e.used[x.V] = e.usedStamp, e.usedStamp
		}
	}
}

// apply is Runner.ApplyMutations: each edit updates the graph, the
// matching and the index's edit protocol (NoteInsert / NoteRemove /
// NoteReweight) in lockstep, and a move of the class-weight ladder
// rebuilds the amortised context.
func (e *engine) apply(ops []core.Mutation) error {
	if len(ops) == 0 {
		return nil
	}
	t := time.Now()
	defer func() { e.clock.apply += time.Since(t) }()
	if err := e.inc.BeginEdits(); err != nil {
		return fmt.Errorf("replay: BeginEdits: %w", err)
	}
	g, m := e.g, e.m
	for _, op := range ops {
		switch op.Op {
		case core.MutInsert:
			if err := g.AddEdge(graph.Edge{U: op.U, V: op.V, W: op.W}); err != nil {
				return err
			}
			e.inc.NoteInsert(g.Edges())
		case core.MutDelete:
			i, ok := g.FindEdge(op.U, op.V)
			if !ok {
				return fmt.Errorf("replay: delete of missing edge (%d,%d)", op.U, op.V)
			}
			if m.Has(op.U, op.V) {
				if err := m.Remove(op.U, op.V); err != nil {
					return err
				}
			}
			moved, err := g.RemoveEdgeAt(i)
			if err != nil {
				return err
			}
			e.inc.NoteRemove(i, moved, g.Edges())
		case core.MutReweight:
			i, ok := g.FindEdge(op.U, op.V)
			if !ok {
				return fmt.Errorf("replay: reweight of missing edge (%d,%d)", op.U, op.V)
			}
			if err := g.SetEdgeWeight(i, op.W); err != nil {
				return err
			}
			if m.Has(op.U, op.V) {
				if err := m.Reweight(op.U, op.V, op.W); err != nil {
					return err
				}
			}
			e.inc.NoteReweight(i, g.Edges())
		}
	}
	e.inc.EndEdits()
	if !slices.Equal(core.ClassWeights(g, e.base, e.prm), e.weights) {
		e.reset()
	}
	return nil
}
