package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// cycleSource is a rand.Source whose stream repeats with a fixed period. A
// Runner that draws its per-round bipartition from one redraws the IDENTICAL
// sides every round (the default solver consumes exactly n Intn(2) draws per
// Parametrize and nothing in between) — the cross-round chain's best case,
// bracketing the uniform-redraw rows from above.
type cycleSource struct {
	vals []int64
	i    int
}

func (s *cycleSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}
func (s *cycleSource) Seed(int64) {}

// E17CrossRound measures the PR 7 tentpole: chaining each class's delta
// baseline across the bipartition redraw instead of restarting the chain
// every BeginRound. The bed is the E13 band (solver-bound, thousands of tiny
// solves per round) under two redraw regimes — the honest uniform redraw,
// where every round flips about half the crossing statuses, and a
// side-stable redraw (period-n Rng), the chain's best case. Each regime runs
// chained (the default) against round-local (CrossRoundCutover = −1, exactly
// the PR 4–6 behaviour). Outputs are bit-identical by construction
// (Invariant 24; asserted per-family by solvertest.TestCrossRoundBitIdentical),
// so the ms/round ratio isolates what surviving the redraw is worth; the
// cross-build counter shows how much of each round's first build actually
// crossed the boundary rather than rebuilding from scratch.
func E17CrossRound(cfg Config) []Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nBand, rounds := 240, 6
	if cfg.Quick {
		nBand, rounds = 60, 3
	}
	g := graph.BandedWeights(nBand, 8*nBand, 100, rng).G
	opts := core.Options{Amortize: true, MaxPairsPerClass: 2000}

	stable := make([]int64, g.N())
	stableRng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := range stable {
		stable[i] = stableRng.Int63()
	}
	seed := cfg.Seed + int64(rng.Intn(1<<20)) // shared: both configs draw identical rounds
	regimes := []struct {
		label string
		src   func() rand.Source
	}{
		{"E13 band, uniform redraw", func() rand.Source { return rand.NewSource(seed) }},
		{"E13 band, stable redraw", func() rand.Source { return &cycleSource{vals: stable} }},
	}

	t := Table{
		ID:    "E17",
		Title: "cross-round delta chaining across the bipartition redraw",
		Claim: "chaining the per-class baseline past BeginRound beats restarting it each round",
		Header: []string{"workload", "config", "ms/round", "delta builds", "cross builds",
			"HK phases", "final weight"},
	}
	for _, reg := range regimes {
		for _, c := range []struct {
			label   string
			cutover int
		}{{"chained", 0}, {"round-local", -1}} {
			o := opts
			o.CrossRoundCutover = c.cutover
			o.Rng = rand.New(reg.src())
			o.MaxRounds = rounds
			o.Patience = rounds
			r, err := runSolverBound(g, o, c.label, seed, rounds)
			if err != nil {
				continue
			}
			perRound := 0.0
			if r.stats.Rounds > 0 {
				perRound = float64(r.elapsed.Microseconds()) / 1000 / float64(r.stats.Rounds)
			}
			t.Rows = append(t.Rows, []string{
				reg.label,
				c.label,
				fmt.Sprintf("%.2f", perRound),
				fi(r.stats.DeltaBuilds),
				fi(r.stats.CrossRoundDeltaBuilds),
				fi(r.stats.SolverPhases),
				fi64(int64(r.weight)),
			})
		}
	}
	return []Table{t}
}
