package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
)

// E16AugProbe measures the augmentability probe (layered.Layered.CanAugment,
// Invariant 29) on the same two shapes the E15 table uses: the E13 band
// (solver-bound: thousands of tiny solves per round, nearly all of which
// cannot augment) and the E12 planted shape (bucket-bound control). Each
// instance runs the amortised pipeline with identical seeds twice: with the
// default exact solver, which probes every pair before solving, and with
// the same scratch-backed Hopcroft–Karp installed as Options.Solver, which
// solves and walks every pair. An installed solver also switches the
// cross-class cache off, so the second row is the "solve everything"
// baseline, not a probe-only ablation; the cache-hit column shows the
// difference. Outputs are bit-identical (asserted family-wide by the
// solvertest Invariant 29 pipeline test), so the final weight columns
// agree and the ms/round ratio is what skipping the closed pairs is worth.
func E16AugProbe(cfg Config) []Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nBand, nPlant, rounds := 240, 120, 3
	if cfg.Quick {
		nBand, nPlant, rounds = 60, 40, 2
	}
	instances := []struct {
		label string
		g     *graph.Graph
		opts  core.Options
	}{
		{
			label: "E13 band (solver-bound)",
			g:     graph.BandedWeights(nBand, 8*nBand, 100, rng).G,
			opts:  core.Options{Amortize: true, MaxPairsPerClass: 2000},
		},
		{
			label: "E12 planted (bucket-bound)",
			g:     graph.PlantedMatching(nPlant, 5*nPlant, 100, 200, rng).G,
			opts:  core.Options{Amortize: true},
		},
	}

	t := Table{
		ID:    "E16",
		Title: "augmentability probe before Hopcroft-Karp",
		Claim: "one layer sweep closes the pairs whose solve cannot augment, so most pairs never reach the solver",
		Header: []string{"workload", "config", "ms/round", "solver calls", "probe skips",
			"cache hits", "HK phases", "final weight"},
	}
	for _, inst := range instances {
		seed := cfg.Seed + int64(rng.Intn(1<<20)) // shared: both configs draw identical rounds
		hk := bipartite.NewScratch()
		solveAll := func(b *bipartite.Bip) (*graph.Matching, error) {
			return bipartite.HopcroftKarpScratch(b, hk).M, nil
		}
		for _, c := range []struct {
			label  string
			solver core.Solver
		}{{"probe", nil}, {"solve-all", solveAll}} {
			opts := inst.opts
			opts.Solver = c.solver
			r, err := runSolverBound(inst.g, opts, c.label, seed, rounds)
			if err != nil {
				continue
			}
			perRound := 0.0
			if r.stats.Rounds > 0 {
				perRound = float64(r.elapsed.Microseconds()) / 1000 / float64(r.stats.Rounds)
			}
			t.Rows = append(t.Rows, []string{
				inst.label,
				c.label,
				fmt.Sprintf("%.2f", perRound),
				fi(r.stats.SolverCalls),
				fi(r.stats.AugProbeSkips),
				fi(r.stats.CacheHits),
				fi(r.stats.SolverPhases),
				fi64(int64(r.weight)),
			})
		}
	}
	return []Table{t}
}
