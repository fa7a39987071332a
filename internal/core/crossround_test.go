package core

import (
	"math/rand"
	"testing"

	"repro/internal/layered"
)

// TestCrossRoundChaining is the core-level differential for the PR 7
// tentpole: with cross-round chaining on (the default) a Solve must return
// the bit-identical matching, gain, and solver phase count of the
// round-local baseline (CrossRoundCutover < 0), while actually linking
// chains across the bipartition redraw (CrossRoundDeltaBuilds > 0) — and
// the baseline must never link (the counter pins the knob's off semantics).
func TestCrossRoundChaining(t *testing.T) {
	g := fallbackTestInstance()
	on := Options{Amortize: true, MaxRounds: 8, Rng: rand.New(rand.NewSource(21))}
	got, err := Solve(g, nil, on)
	if err != nil {
		t.Fatal(err)
	}
	off := Options{Amortize: true, MaxRounds: 8, CrossRoundCutover: -1,
		Rng: rand.New(rand.NewSource(21))}
	want, err := Solve(g, nil, off)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatchings(got.M, want.M) {
		t.Fatalf("cross-round run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
	}
	if got.Stats.Gain != want.Stats.Gain || got.Stats.SolverPhases != want.Stats.SolverPhases ||
		got.Stats.SolverCalls != want.Stats.SolverCalls || got.Stats.Rounds != want.Stats.Rounds {
		t.Fatalf("cross-round run's result counters diverged:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.Stats.CrossRoundDeltaBuilds == 0 {
		t.Error("cross-round chaining on, but no chain crossed a round boundary")
	}
	if want.Stats.CrossRoundDeltaBuilds != 0 {
		t.Errorf("CrossRoundCutover=-1 still linked across rounds: %+v", want.Stats)
	}
	// Healthy chains never touch the ladder, cross-round links included.
	if got.Stats.FallbackBuilds != 0 {
		t.Errorf("healthy cross-round run hit fallback rungs: %+v", got.Stats)
	}
}

// TestCrossRoundCutoverGate pins the positive-value semantics: a link gate
// higher than any real reuse forces every round link to rebuild in place
// (the link build still counts — the chain stays connected — but reuses
// nothing at the boundary), bit-identically.
func TestCrossRoundCutoverGate(t *testing.T) {
	g := fallbackTestInstance()
	gated := Options{Amortize: true, MaxRounds: 6, CrossRoundCutover: 1 << 20,
		Rng: rand.New(rand.NewSource(5))}
	got, err := Solve(g, nil, gated)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(5))}
	want, err := Solve(g, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatchings(got.M, want.M) {
		t.Fatalf("gated run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
	}
	if got.Stats.CrossRoundDeltaBuilds == 0 {
		t.Error("gated link builds should still chain (rebuild in place), not restart")
	}
}

// TestBeginRoundBusyAbsorbed: the index's BeginRound misuse sentinel
// (layered.ErrBeginRoundBusy) surfaces through beginRound as an error, and
// the reset rung absorbs it exactly like a setup panic — rebuild once on a
// transient fault, disable amortisation on a persistent one, bit-identical
// matching either way.
func TestBeginRoundBusyAbsorbed(t *testing.T) {
	g := fallbackTestInstance()
	clean := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
	want, err := Solve(g, nil, clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	t.Run("transient", func(t *testing.T) {
		calls := 0
		testBeginRoundErr = func() error {
			calls++
			if calls == 1 {
				return layered.ErrBeginRoundBusy
			}
			return nil
		}
		defer func() { testBeginRoundErr = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("transient busy sentinel must recover, got: %v", err)
		}
		if got.Stats.FallbackResets != 1 {
			t.Errorf("FallbackResets = %d, want 1", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("reset run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})

	t.Run("persistent", func(t *testing.T) {
		testBeginRoundErr = func() error { return layered.ErrBeginRoundBusy }
		defer func() { testBeginRoundErr = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("persistent busy sentinel must disable amortisation, got: %v", err)
		}
		if got.Stats.FallbackResets != 2 {
			t.Errorf("FallbackResets = %d, want 2 (rebuild once, then disable)", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("de-amortised run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})
}
