package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/localratio"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

const mb = 1 << 20

// peakRSS reads VmHWM, the peak resident set size, of process pid ("self"
// for this one) in MB.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb * 1024 / mb, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// edgeSet is a multiset of (u, v, w) edges, the ground truth a matching is
// checked against (the streamed graphs may hold parallel edges).
type edgeSet map[graph.Edge]int

func newEdgeSet(edges []graph.Edge) edgeSet {
	s := make(edgeSet, len(edges))
	for _, e := range edges {
		s[e.Canonical()]++
	}
	return s
}

// validateMatching checks that every matched edge is an edge of the graph
// with its weight, that no vertex is matched twice, and that the reported
// weight is the sum of the matched weights.
func validateMatching(n int, edges []graph.Edge, weight graph.Weight, graphEdges edgeSet) error {
	seen := make(map[int]bool, 2*len(edges))
	var sum graph.Weight
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n || e.U == e.V {
			return fmt.Errorf("matched edge %v out of range", e)
		}
		if graphEdges[e.Canonical()] == 0 {
			return fmt.Errorf("matched edge %v is not an edge of the graph", e)
		}
		if seen[e.U] || seen[e.V] {
			return fmt.Errorf("vertex of %v matched twice", e)
		}
		seen[e.U], seen[e.V] = true, true
		sum += e.W
	}
	if sum != weight {
		return fmt.Errorf("matching reports weight %d, its edges sum to %d", weight, sum)
	}
	return nil
}

// coverBound is Σα of the local-ratio algorithm over edges: a fractional
// vertex cover of the weights, so every matching weighs at most this much
// and weight/coverBound is a certified lower bound on the approximation
// ratio.
func coverBound(n int, edges []graph.Edge) graph.Weight {
	p := localratio.New(n)
	for _, e := range edges {
		p.Process(e)
	}
	return p.CoverBound()
}

// sortedEdges returns a copy of es in canonical order, the form two
// matchings are compared in for bit-identity.
func sortedEdges(es []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = e.Canonical()
	}
	slices.SortFunc(out, func(a, b graph.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	return out
}
