package solvertest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestChaosLadderBitIdentical is the chaos gate: every E1–E16 generator
// family, under fault injection at several rates (including saturation,
// where every reachable site fires on every call), must neither error nor
// panic and must produce the naive reference's bit-identical matching
// every round. Six rounds mean every class's delta chain spans five
// bipartition redraws (cross-round chaining is on by default), so the
// matrix also drives the PR 7 ChainLink hazard at the round links. The
// Fallback* gate below ("faults actually flowed through the build rung")
// is asserted over the aggregate, since which sites get
// exercised shifts with the rate — at saturation the injected worker
// panics quarantine every class before the deeper rungs are reached, and
// ChainLink is provably unreachable there (DeltaStale sits earlier in
// BuildDelta and fires on every call first), so its gate aggregates over
// the sub-saturation rates.
func TestChaosLadderBitIdentical(t *testing.T) {
	var agg core.Stats
	var fired, chainFired uint64
	for _, rate := range []float64{0.01, 0.10, 1.0} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			var rateFired uint64
			for wi, w := range Workloads(rng) {
				inj := faultinject.New(int64(1000*rate)+int64(wi), rate)
				ref := core.Options{}
				chaos := core.Options{Amortize: true}
				_, sC := AssertChaosBitIdentical(t, w, ref, chaos, 7+int64(wi), 6, inj)
				agg.FallbackBuilds += sC.FallbackBuilds
				agg.FallbackCacheDrops += sC.FallbackCacheDrops
				agg.FallbackClasses += sC.FallbackClasses
				agg.FallbackSweeps += sC.FallbackSweeps
				agg.FallbackResets += sC.FallbackResets
				rateFired += inj.FiredTotal()
				if rate < 1 {
					chainFired += inj.Fired(faultinject.ChainLink)
				}
			}
			if rateFired == 0 {
				t.Errorf("rate %g: injector never fired — hazard sites unreachable?", rate)
			}
			fired += rateFired
		})
	}
	if fired == 0 {
		t.Fatal("no faults injected across the whole matrix")
	}
	// The acceptance gate: faults flowed through the build rung (not only
	// the panic/sweep rungs) somewhere in the matrix.
	if agg.FallbackBuilds == 0 {
		t.Errorf("no build-rung fallbacks across the matrix: %+v", agg)
	}
	if agg.FallbackClasses == 0 {
		t.Errorf("no class-rung fallbacks across the matrix (worker panics not exercised): %+v", agg)
	}
	if agg.FallbackSweeps == 0 {
		t.Errorf("no sweep-rung fallbacks across the matrix (dirty-gate damage not exercised): %+v", agg)
	}
	if chainFired == 0 {
		t.Errorf("ChainLink never fired at the sub-saturation rates — cross-round links not exercised: %+v", agg)
	}
}

// TestChaosParallelWorkers re-runs a slice of the matrix with a worker
// pool: injected worker panics must be recovered inside the pool
// goroutines (a panic there would kill the whole test binary, not just
// fail this test) and the sweep must stay bit-identical to the sequential
// reference. The CI chaos job additionally runs this under -race.
func TestChaosParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for wi, w := range Workloads(rng) {
		if wi%2 == 1 {
			continue // every other family: keep the -race run brisk
		}
		inj := faultinject.New(int64(77+wi), 0.10)
		ref := core.Options{}
		chaos := core.Options{Amortize: true, Workers: 4}
		_, sC := AssertChaosBitIdentical(t, w, ref, chaos, 13+int64(wi), 5, inj)
		if inj.FiredTotal() > 0 && inj.Fired(faultinject.WorkerPanic) > 0 && sC.FallbackClasses == 0 {
			t.Errorf("%s: worker panics fired but no class fallbacks recorded", w.Name)
		}
	}
}

// TestChaosInjectionFreeIsClean pins the harness's own baseline: with a
// zero-rate injector the chaos path is exactly the amortised path, and the
// ladder's counters all stay zero (no rung fires without a fault).
func TestChaosInjectionFreeIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := Workloads(rng)[0]
	inj := faultinject.New(1, 0)
	_, sC := AssertChaosBitIdentical(t, w, core.Options{}, core.Options{Amortize: true}, 3, 6, inj)
	if inj.FiredTotal() != 0 {
		t.Errorf("zero-rate injector fired %d times", inj.FiredTotal())
	}
	if n := sC.FallbackBuilds + sC.FallbackCacheDrops +
		sC.FallbackClasses + sC.FallbackSweeps + sC.FallbackResets; n != 0 {
		t.Errorf("fallback counters nonzero on a healthy run: %+v", sC)
	}
}
