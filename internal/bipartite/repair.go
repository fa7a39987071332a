package bipartite

// Incremental Hopcroft–Karp repair: the solver-side twin of the
// differential layered-graph builder (layered.BuildDelta). The amortised
// reduction solves chains of instances that differ from their predecessor
// only in a rebuilt suffix of the edge list (with a stable vertex-id
// prefix, Invariant 19), yet every HopcroftKarpScratch call rebuilds the
// whole CSR adjacency from scratch and allocates a fresh result matching.
// RepairHK patches the retained CSR instead — copying the shared-prefix
// rows and rebuilding only the suffix entries — and then runs the standard
// phase loop from the empty matching over the patched CSR.
//
// Because the patched CSR is byte-identical to the one prepare would build
// (same offsets, same per-row entry order), the phase loop's execution is
// bit-for-bit the cold solve's: the same matching, the same phase count,
// the same tie-breaks (Invariant 21, repair-equals-fresh). Re-augmenting
// from a retained previous matching was considered and rejected: the warm
//-start measurements (PR 3 ledger) showed the reduction's layered graphs
// run ~1 phase per call, so there are no phases to save, and a seeded
// search returns a different (equally maximum) matching, which would break
// the differential suite's bit-identity. The repair's win is the setup
// cost, exactly where the E13 counters located it.

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// RepairHK error conditions. All of them mean the caller broke the repair
// contract; the arena is left untouched (beyond the cleared retention
// token where noted) and the caller must fall back to a full solve.
var (
	// ErrRepairNoBase: the scratch holds no retained solve to patch — the
	// first solve of a chain must use HopcroftKarpRetained.
	ErrRepairNoBase = errors.New("bipartite: RepairHK needs a previous retained solve as baseline")
	// ErrRepairStale: info.BaseToken does not name the scratch's latest
	// retained solve — another solve ran in between, or the info was
	// recorded against a different (foreign) scratch. Tokens are globally
	// unique, so a foreign scratch can never validate by coincidence.
	ErrRepairStale = errors.New("bipartite: RepairHK baseline is stale or foreign")
	// ErrRepairInfo: the kept-prefix descriptor exceeds the baseline or the
	// current instance (more kept edges/vertices than either has).
	ErrRepairInfo = errors.New("bipartite: RepairHK info inconsistent with baseline or instance")
)

// solveTokens issues globally unique retention tokens, so a RepairInfo
// recorded against one Scratch can never validate against another.
var solveTokens atomic.Uint64

// RepairInfo describes the byte-shared prefix between the instance of the
// scratch's latest retained solve and the instance being solved now. The
// caller asserts (the layered side proves it via DeltaInfo / Invariant 19)
// that b.Edges[:KeptEdges] is identical to the baseline's prefix, that
// vertices [0, KeptVerts) have the same identity and side in both
// instances, and that every kept-prefix edge has both endpoints under
// KeptVerts. RepairHK checks everything checkable (token, bounds) and
// returns an ErrRepair* sentinel instead of a wrong matching.
//
// The contract is deliberately round-agnostic: BaseToken names a solve, not
// a round, and solveTokens issues globally unique values, so a baseline
// recorded before a bipartition redraw stays patchable afterwards — the
// chain extends across rounds for free once the layered side can prove a
// shared prefix across the redraw (layered.RoundChainer, PR 7: stability of
// a kept segment's bucket implies its side entries are unchanged too, which
// is exactly the "same identity and side" clause above). A baseline that
// cannot be proven shared simply arrives with a smaller — possibly zero —
// kept prefix; staleness is still caught by the token check alone.
type RepairInfo struct {
	// BaseToken is the Scratch.SolveToken observed right after the baseline
	// solve.
	BaseToken uint64
	// KeptVerts: vertex ids [0, KeptVerts) are shared with the baseline.
	KeptVerts int
	// KeptEdges: b.Edges[:KeptEdges] is byte-identical to the baseline's
	// edge-list prefix.
	KeptEdges int
}

// SolveToken returns the token of the scratch's latest retained solve, or 0
// when none is retained (no retained solve yet, or a non-retained solve ran
// since and overwrote the arena). Callers record it to build the RepairInfo
// of the next solve in the chain.
func (s *Scratch) SolveToken() uint64 { return s.token }

// HopcroftKarpRetained is HopcroftKarpScratch with the solve retained on
// the arena as a repair baseline: the CSR stays valid for a subsequent
// RepairHK (see SolveToken), and the returned matching is owned by the
// arena — valid only until the next solve on s, which resets and refills
// it. The matching itself is identical to HopcroftKarpScratch's. It is
// SolveRetained followed by the Matching fill.
func HopcroftKarpRetained(b *Bip, s *Scratch) Result {
	if s == nil {
		s = NewScratch()
	}
	phases := s.SolveRetained(b)
	return Result{M: s.Matching(b), Phases: phases}
}

// RepairHK solves b exactly like HopcroftKarpRetained, but builds the CSR
// by patching the retained baseline instead of from scratch: the rows of
// the KeptVerts shared vertices keep their kept-prefix entries (copied
// without re-deriving orientation), and only the suffix edges
// b.Edges[KeptEdges:] are scanned. The patched CSR is byte-identical to
// what prepare would build, so the returned matching AND phase count are
// bit-for-bit those of a cold solve (Invariant 21); the saving is the
// setup, not the phases. The returned matching is arena-owned, as with
// HopcroftKarpRetained. A non-nil error means the baseline cannot be
// patched (see the ErrRepair* conditions) and the caller should solve via
// HopcroftKarpRetained instead. It is Repair followed by the Matching fill.
func RepairHK(b *Bip, s *Scratch, info RepairInfo) (Result, error) {
	if s == nil {
		return Result{}, ErrRepairNoBase
	}
	phases, err := s.Repair(b, info)
	if err != nil {
		return Result{}, err
	}
	return Result{M: s.Matching(b), Phases: phases}, nil
}

// SolveRetained is the solve of HopcroftKarpRetained without the fill: it
// retains the solve as the arena's repair baseline and returns the phase
// count, leaving the matching in the arena's solver state. Size reads its
// cardinality; Matching materialises it on demand.
func (s *Scratch) SolveRetained(b *Bip) int {
	s.prepare(b)
	phases := s.run(b, math.MaxInt32, nil)
	s.retain(b)
	return phases
}

// Repair is the solve of RepairHK without the fill, with RepairHK's
// contract and errors; on success the arena holds the retained solve
// exactly as after SolveRetained.
func (s *Scratch) Repair(b *Bip, info RepairInfo) (int, error) {
	if s.token == 0 {
		return 0, ErrRepairNoBase
	}
	if info.BaseToken != s.token {
		return 0, ErrRepairStale
	}
	// Hazard site (chaos testing): report the retained CSR's token
	// mismatched before the arena is touched, exactly as a real overwrite
	// by a foreign solve would.
	if faultinject.Fire(faultinject.RepairToken) {
		return 0, ErrRepairStale
	}
	if info.KeptVerts < 0 || info.KeptVerts > b.N || info.KeptVerts > s.prevN ||
		info.KeptEdges < 0 || info.KeptEdges > len(b.Edges) || info.KeptEdges > s.prevM {
		return 0, ErrRepairInfo
	}
	s.patch(b, info)
	phases := s.run(b, math.MaxInt32, nil)
	s.retain(b)
	return phases, nil
}

// retain records the latest solve, of b, as the arena's repair baseline.
func (s *Scratch) retain(b *Bip) {
	s.token = solveTokens.Add(1)
	s.prevN, s.prevM = b.N, len(b.Edges)
}

// Size returns the cardinality of the arena's latest solve — the matched
// pairs its phase loop left behind — without materialising the matching.
func (s *Scratch) Size() int { return s.size }

// Matching fills the arena-owned matching with the latest solve's result
// and returns it. b must be the instance that solve ran on; the matching is
// valid until the next Matching call or solve on s.
func (s *Scratch) Matching(b *Bip) *graph.Matching {
	if s.out == nil {
		s.out = new(graph.Matching)
	}
	s.out.FillFromSolver(b.N, b.Side, s.matchL, s.matchR, s.matchEdge, b.Edges)
	return s.out
}

// patch builds the CSR for b from the retained baseline CSR: per-row
// kept-prefix entries are copied verbatim (rows are filled in edge order,
// so a row's kept entries are exactly its leading entries with edge index
// under KeptEdges), suffix entries are derived from b.Edges[KeptEdges:]
// the way prepare derives all of them. The result lands in the primary
// off/to/eidx arrays via a buffer swap; per-row entry order is kept-prefix
// entries (ascending edge index) followed by suffix entries (ascending),
// i.e. ascending overall — exactly prepare's order.
func (s *Scratch) patch(b *Bip, info RepairInfo) {
	n, m := b.N, len(b.Edges)
	kv, ke := int32(info.KeptVerts), int32(info.KeptEdges)

	// Size the secondary CSR buffers and the per-vertex state. The primary
	// buffers hold the baseline and must not be reallocated here.
	if cap(s.off2) < n+1 {
		s.off2 = make([]int32, n+1)
	}
	s.off2 = s.off2[:n+1]
	if cap(s.to2) < m {
		s.to2 = make([]int32, m)
		s.eidx2 = make([]int32, m)
	}
	s.to2, s.eidx2 = s.to2[:m], s.eidx2[:m]
	s.sizeVerts(n)
	s.queue = s.queue[:0]

	// Suffix degrees first (s.dist doubles as the cursor array, as in
	// prepare), then one pass over the vertices that lays out offsets and
	// copies each kept row's leading sub-KeptEdges entries in the same
	// sweep — kept rows are scanned once, not twice. Vertices at or past
	// KeptVerts have no kept entries by the caller's contract (every
	// kept-prefix edge has both endpoints under KeptVerts).
	off2, cur := s.off2, s.dist
	for v := 0; v < n; v++ {
		cur[v] = 0
	}
	for i := int(ke); i < m; i++ {
		e := b.Edges[i]
		l := e.U
		if b.Side[l] {
			l = e.V
		}
		cur[l]++
	}
	pos := int32(0)
	for v := int32(0); v < int32(n); v++ {
		off2[v] = pos
		if v < kv {
			lo, hi := s.off[v], s.off[v+1]
			if lo < hi && s.eidx[hi-1] < ke {
				// Whole row kept (entries ascend by edge index): bulk copy.
				pos += int32(copy(s.to2[pos:], s.to[lo:hi]))
				copy(s.eidx2[off2[v]:], s.eidx[lo:hi])
			} else {
				for j := lo; j < hi && s.eidx[j] < ke; j++ {
					s.to2[pos] = s.to[j]
					s.eidx2[pos] = s.eidx[j]
					pos++
				}
			}
		}
		sd := cur[v]
		cur[v] = pos // suffix cursor: entries land after the kept ones
		pos += sd
	}
	off2[n] = pos
	for i := int(ke); i < m; i++ {
		e := b.Edges[i]
		l, r := e.U, e.V
		if b.Side[l] {
			l, r = r, l
		}
		s.to2[cur[l]] = int32(r)
		s.eidx2[cur[l]] = int32(i)
		cur[l]++
	}

	s.off, s.off2 = s.off2, s.off
	s.to, s.to2 = s.to2, s.to
	s.eidx, s.eidx2 = s.eidx2, s.eidx
}
