package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// E12Convergence records the per-round convergence curve of the Theorem 1.2
// driver: the expected-gain argument of Theorem 4.8 implies geometric
// convergence toward the optimum (each round closes a constant expected
// fraction of the remaining gap while the matching is not (1−ε)-optimal).
func E12Convergence(cfg Config) []Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 120
	if cfg.Quick {
		n = 50
	}
	inst := graph.PlantedMatching(n, 5*n, 100, 200, rng)

	t := Table{
		ID:     "E12",
		Title:  "Theorem 4.8 — per-round convergence of the reduction",
		Claim:  "each round closes a constant expected fraction of the remaining gap",
		Header: []string{"round", "weight", "ratio", "remaining gap"},
	}
	var curve []graph.Weight
	res, err := core.Solve(inst.G, nil, core.Options{
		Rng:       rng,
		MaxRounds: 12,
		Patience:  12,
		Amortize:  cfg.Amortize,
		Trace: func(round int, w graph.Weight) {
			curve = append(curve, w)
		},
	})
	if err != nil {
		return []Table{t}
	}
	for round, w := range curve {
		gap := inst.OptWeight - w
		t.Rows = append(t.Rows, []string{
			fi(round + 1),
			fi64(int64(w)),
			f3(float64(w) / float64(inst.OptWeight)),
			fi64(int64(gap)),
		})
	}

	// The amortised-pipeline ledger: how much of the round work the
	// cross-round machinery absorbed. On the naive path the survival-probe,
	// cache, and delta columns are structurally zero; the builds and
	// solver-call columns are directly comparable between the two
	// configurations (bit-identical matchings, see internal/solvertest).
	// The columns come from core.Stats itself (Stats.Fields), so a counter
	// added by a future PR appears here without anyone remembering to add
	// it — TestE12bCountersComplete pins the correspondence.
	counters := Table{
		ID:     "E12b",
		Title:  "amortised-pipeline counters over the E12 run",
		Claim:  "probe-guided enumeration prunes most pairs before generation; matchings stay bit-identical",
		Header: []string{"amortize"},
	}
	row := []string{fmt.Sprintf("%v", cfg.Amortize)}
	for _, f := range res.Stats.Fields() {
		counters.Header = append(counters.Header, f.Name)
		row = append(row, fmt.Sprintf("%d", f.Value))
	}
	counters.Header = append(counters.Header, "final weight")
	row = append(row, fi64(int64(res.M.Weight())))
	counters.Rows = append(counters.Rows, row)
	return []Table{t, counters}
}
