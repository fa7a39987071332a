package layered

import "math"

// CanAugment reports whether L' holds an ML'-augmenting path — by Berge's
// lemma, exactly when a maximum matching M' of L' is larger than ML'
// (|ML'| = len(InteriorX)), i.e. exactly when the Algorithm 4 solve of this
// pair can yield an augmenting walk (Invariant 29). It reads only the
// layered graph:
//
//   - every interior-layer copy survives only with an X edge, so every
//     ML'-free vertex of L' lies in layer 0 or layer K;
//   - every Y edge runs from an R copy in layer t to an L copy in layer t+1,
//     and an alternating path leaves an interior L copy only through its
//     X mate, so every ML'-alternating path is monotone in the layers.
//
// One sweep over Y in build order (gap t nondecreasing, which BuildDelta
// reproduces byte-for-byte) therefore decides it: a layer-0 R copy is free,
// an interior R copy is reached when its X mate was, and the first Y edge
// from a reached R copy into layer K closes an augmenting path. The mate
// and reach tables are stamped arrays on the build's arena, so a
// scratch-backed probe allocates nothing.
func (l *Layered) CanAugment() bool {
	if len(l.Y) == 0 {
		return false
	}
	if l.K == 1 {
		// No interior layer: ML' is empty and every Y edge is a path.
		return true
	}
	s := l.scratch
	if s == nil {
		s = NewScratch()
	}
	stamp := s.nextReach(l.NumV)
	mate := s.reachMate
	for _, e := range l.InteriorX {
		mate[e.U], mate[e.V] = int32(e.V), int32(e.U)
	}
	gap := 0
	next := false // some L copy of layer gap+1 is reached
	for _, e := range l.Y {
		t := int(l.vertLayer[e.U])
		if t != gap {
			// Every augmenting path crosses every gap, so a gap whose Y
			// edges reached nothing (or a gap with no Y edge) ends it.
			if t != gap+1 || !next {
				return false
			}
			gap, next = t, false
		}
		if t > 0 && s.reachAt[e.U] != stamp {
			continue
		}
		if t+1 == l.K {
			return true
		}
		next = true
		s.reachAt[mate[e.V]] = stamp
	}
	return false
}

// nextReach sizes the probe tables for n compact ids and returns a fresh
// reach stamp.
func (s *Scratch) nextReach(n int) uint32 {
	if len(s.reachAt) < n {
		s.reachAt = make([]uint32, n)
		s.reachMate = make([]int32, n)
		s.reachStamp = 0
	}
	s.reachStamp++
	if s.reachStamp == 0 {
		clear(s.reachAt)
		s.reachStamp = 1
	}
	return s.reachStamp
}

// CanAugmentPair decides CanAugment for the pair's layered graph without
// building it (Invariant 30): BuildIndexed(v, tau, s).CanAugment() ==
// v.CanAugmentPair(tau, s). The sweep is CanAugment's, run on original
// vertex ids over the grouped Y tables the build itself reads:
//
//   - gap t's Y edges are YGroup(BUnits[t], row, col) with BuildDelta's
//     row/col rule (gapGroup), in the order the build emits them;
//   - at t = 0 every edge starts a path, at t > 0 an edge counts only when
//     its R endpoint e.U is reached in layer t, and an edge into layer K
//     closes a path;
//   - otherwise the reach passes to the interior-X mate of e.V's copy in
//     layer t+1, which is par.M.Mate(e.V): col = τA[t+1] says e.V's
//     matched edge is a crossing edge of unit τA[t+1], i.e. exactly the
//     layer's X edge A(τA[t+1]) holds at e.V.
//
// Reach lives in two stamped tables over original ids, one per layer
// parity: the sweep reads layer t while it writes layer t+1, and a vertex
// may be reached in both. The tables are on s, so the probe allocates
// nothing once they are sized; s may be any arena the caller owns (the
// probe touches none of its build state). At discretisations past the
// grouped tables (YGroupsOK false) the probe conservatively reports true.
func (v *IncView) CanAugmentPair(tau TauPair, s *Scratch) bool {
	if !v.YGroupsOK() {
		return true
	}
	k := tau.K()
	mate := v.ix.par.M
	base := s.nextPairReach(v.ix.n, k)
	for t := 0; t < k; t++ {
		row, col, ok := gapGroup(tau, t)
		if !ok {
			return false
		}
		cur, next := s.pairReach[t&1], s.pairReach[(t+1)&1]
		at, to := base+uint32(t), base+uint32(t+1)
		reached := false
		for _, e := range v.YGroup(tau.BUnits[t], row, col) {
			if t > 0 && cur[e.U] != at {
				continue
			}
			if t+1 == k {
				return true
			}
			next[mate.Mate(e.V)] = to
			reached = true
		}
		// Every augmenting path crosses every gap.
		if !reached {
			return false
		}
	}
	return false
}

// gapGroup returns the grouped Y classification of gap t of tau — the R
// endpoints' matched unit row (0: free R, only at t = 0) and the L
// endpoints' matched unit col (FreeLBit: free L, only into layer K) — or
// ok = false when the gap can hold no Y edge. It is the one copy of the
// rule BuildDelta's grouped Y stage and CanAugmentPair share.
func gapGroup(tau TauPair, t int) (row, col int, ok bool) {
	switch {
	case tau.AUnits[t] > 0:
		row = tau.AUnits[t]
	case t == 0:
		row = 0
	default:
		return 0, 0, false
	}
	switch {
	case tau.AUnits[t+1] > 0:
		col = tau.AUnits[t+1]
	case t+1 == tau.K():
		col = FreeLBit
	default:
		return 0, 0, false
	}
	return row, col, true
}

// nextPairReach sizes the index probe's parity tables for n original ids
// and returns the first of k+1 fresh consecutive stamps, one per layer.
func (s *Scratch) nextPairReach(n, k int) uint32 {
	if len(s.pairReach[0]) < n {
		s.pairReach = [2][]uint32{make([]uint32, n), make([]uint32, n)}
		s.pairStamp = 0
	}
	if s.pairStamp > math.MaxUint32-uint32(k+1) {
		clear(s.pairReach[0])
		clear(s.pairReach[1])
		s.pairStamp = 0
	}
	base := s.pairStamp + 1
	s.pairStamp += uint32(k + 1)
	return base
}
