package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// batchSpec sizes a solve-* workload.
type batchSpec struct {
	gen   func(rng *rand.Rand) graph.Instance
	pairs int // Options.MaxPairsPerClass; 0 keeps core's default
	// rounds is the fixed round budget (MaxRounds = Patience, so the budget
	// and never the stall counter ends a Solve). Under the default budget
	// the round count to convergence swings 12–30 across seeds on the band
	// input, which would put most of the seed-to-seed spread of solve_ms
	// into the stopping rule rather than the pipeline.
	rounds int
}

func batchSpecFor(cfg config) batchSpec {
	n, m := 1000, 8000
	spec := batchSpec{pairs: 2000, rounds: 12}
	if cfg.workload == solveUniform {
		n, m = 10000, 60000
		spec.pairs = 0
	}
	if cfg.tiny {
		n, m, spec.rounds = n/20, m/20, 3
	}
	if cfg.workload == solveUniform {
		spec.gen = func(rng *rand.Rand) graph.Instance { return graph.UniformWeights(n, m, 128, rng) }
	} else {
		spec.gen = func(rng *rand.Rand) graph.Instance { return graph.BandedWeights(n, m, 100, rng) }
	}
	return spec
}

// options is the untraced Solve's configuration: the amortised pipeline
// single-threaded, bipartitions drawn from the run's seed.
func (s batchSpec) options(seed int64, trace func(int, graph.Weight)) core.Options {
	return core.Options{
		Amortize:         true,
		Workers:          1,
		MaxPairsPerClass: s.pairs,
		MaxRounds:        s.rounds,
		Patience:         s.rounds,
		Rng:              rand.New(rand.NewSource(seed)),
		Trace:            trace,
	}
}

// runBatch measures repeated core.Solve calls from the empty matching on
// one generated graph; every solve must return the bit-identical matching
// and Stats of the first.
func runBatch(r *run) {
	cfg := r.cfg
	spec := batchSpecFor(cfg)

	// Set-up: generate the input and build the amortised index (what
	// NewRunner does at the start of every Solve). One set-up takes
	// milliseconds, so it is repeated before every solve: the samples
	// spread over the whole run instead of one moment of it.
	var setups []float64
	setup := func() *graph.Graph {
		t := time.Now()
		g := spec.gen(rand.New(rand.NewSource(cfg.seed))).G
		_ = core.NewRunner(g, spec.options(cfg.seed, nil))
		setups = append(setups, time.Since(t).Seconds())
		return g
	}
	g := setup()
	graphEdges := newEdgeSet(g.Edges())
	bound := coverBound(g.N(), g.Edges())

	var times, allocs, roundMs []float64
	var first core.Result
	var firstEdges []graph.Edge
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if r.ctx.Err() != nil {
			return
		}
		setup()
		r.attempted++
		var last time.Time
		trace := func(int, graph.Weight) {
			now := time.Now()
			roundMs = append(roundMs, ms(now.Sub(last)))
			last = now
		}
		opts := spec.options(cfg.seed, trace)
		a0 := totalAlloc()
		t := time.Now()
		last = t
		res, err := core.Solve(g, nil, opts)
		d := time.Since(t)
		a1 := totalAlloc()
		if err != nil {
			r.fail(fmt.Errorf("solve: %w", err))
			return
		}
		times = append(times, ms(d))
		allocs = append(allocs, float64(a1-a0)/mb)
		if err := validateMatching(g.N(), res.M.Edges(), res.M.Weight(), graphEdges); err != nil {
			r.check(false, "solve %d: %v", len(times), err)
			continue
		}
		if firstEdges == nil {
			first, firstEdges = res, sortedEdges(res.M.Edges())
			continue
		}
		r.check(slices.Equal(sortedEdges(res.M.Edges()), firstEdges), "solve %d: matching differs from the first solve's", len(times))
		r.check(res.Stats == first.Stats, "solve %d: Stats differ from the first solve's", len(times))
	}
	if firstEdges == nil {
		return
	}
	st := first.Stats
	r.check(st.Rounds == spec.rounds, "solve ran %d rounds, budget %d", st.Rounds, spec.rounds)
	rss, err := peakRSS("self")
	if err != nil {
		r.fail(err)
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["solve_ms"] = median(times)
	r.e2e["weight_ratio"] = float64(first.M.Weight()) / float64(bound)
	r.e2e["alloc_mb"] = median(allocs)
	r.e2e["rss_mb"] = rss
	if !cfg.trace {
		return
	}

	// Traced run: replay the identical Solve through the layer entry
	// points three times and report the replay with the median wall time.
	var reps []replayRun
	for range 3 {
		if r.ctx.Err() != nil {
			return
		}
		e, err := newEngine(g, spec.options(cfg.seed, nil), rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			r.fail(err)
			return
		}
		t := time.Now()
		if err := converge(spec.rounds, spec.rounds, e.round); err != nil {
			r.fail(err)
			return
		}
		reps = append(reps, replayRun{e: e, wall: time.Since(t)})
		c := e.counts
		r.check(slices.Equal(sortedEdges(e.m.Edges()), firstEdges), "replay matching differs from Solve's")
		r.check(c.solves == st.SolverCalls+st.CacheHits,
			"replay solved %d pairs, Solve %d (SolverCalls %d + CacheHits %d)",
			c.solves, st.SolverCalls+st.CacheHits, st.SolverCalls, st.CacheHits)
		r.check(c.layeredBuilt == st.LayeredBuilt && c.rounds == st.Rounds,
			"replay charged %d builds in %d rounds, Solve %d in %d", c.layeredBuilt, c.rounds, st.LayeredBuilt, st.Rounds)
	}
	rep := medianReplay(reps)
	rep.report(r.layer, 1)
	r.layer["core.round_ms_p50"] = median(roundMs)
	r.layer["core.round_ms_p90"] = quantile(roundMs, 0.9)
	reportStats(r.layer, st, 1)
	r.layer["core.rounds"] = float64(st.Rounds)
	r.layer["trace.overhead"] = ms(rep.wall) / median(times)
}

// replayRun is one timed replay.
type replayRun struct {
	e    *engine
	wall time.Duration
}

func medianReplay(reps []replayRun) replayRun {
	s := slices.Clone(reps)
	slices.SortFunc(s, func(a, b replayRun) int { return int(a.wall - b.wall) })
	return s[len(s)/2]
}

// report emits the replay's stage breakdown, per solve unit (units = the
// number of Solves or ticks the replay covered).
func (rr replayRun) report(out map[string]float64, units int) {
	c, k := rr.e.clock, rr.e.counts
	u := float64(units)
	out["layered.index_ms"] = ms(c.index) / u
	out["layered.enum_ms"] = ms(c.enum) / u
	out["layered.build_ms"] = ms(c.build) / u
	out["layered.build_ns_per"] = perCount(c.build, k.builds)
	out["layered.walks_ms"] = ms(c.walks) / u
	out["bipartite.solve_ms"] = ms(c.solve) / u
	out["bipartite.solve_ns_per"] = perCount(c.solve, k.solves)
	out["bipartite.phases_per_solve"] = ratio(k.phases, k.solves)
	out["bipartite.repair_ratio"] = ratio(k.repairs, k.solves)
	out["core.merge_ms"] = ms(c.merge) / u
	out["trace.coverage"] = float64(c.sum()) / float64(rr.wall)
}

// reportStats emits the exact Stats counters, per solve unit.
func reportStats(out map[string]float64, st core.Stats, units int) {
	u := float64(units)
	out["layered.builds"] = float64(st.LayeredBuilt) / u
	out["layered.delta_builds"] = float64(st.DeltaBuilds) / u
	out["layered.enum_pruned"] = float64(st.EnumPruned) / u
	out["layered.survive_ratio"] = ratio(st.SolverCalls, st.LayeredBuilt)
	out["core.cache_hit_ratio"] = ratio(st.CacheHits, st.SolverCalls+st.CacheHits)
	out["core.classes_skipped"] = float64(st.ClassesSkippedDirty) / u
	out["core.applied_augs"] = float64(st.AppliedAugmentations) / u
}

func perCount(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
