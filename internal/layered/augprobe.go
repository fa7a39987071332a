package layered

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
