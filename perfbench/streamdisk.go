package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/randarrival"
	"repro/internal/stream"
)

// Algorithm 2's parameters, set explicitly so the untraced run and the
// phase replay cannot drift apart through a changed default.
const (
	prefixFraction = 0.05
	beta           = 0.3
)

// runStream measures Algorithm 2 (randarrival.RandArrMatching with an
// Arena and an Accountant) over a disk-resident, externally shuffled
// stream file: one single pass per attempt, every pass the same matching.
func runStream(r *run) {
	cfg := r.cfg
	n, m, maxW := 100_000, 2_000_000, graph.Weight(1<<20)
	if cfg.tiny {
		n, m = 2_000, 40_000
	}
	dir, err := os.MkdirTemp(cfg.workdir, "stream-")
	if err != nil {
		r.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "edges.stream")

	// Set-up: generate and shuffle the stream to disk, then open (and so
	// CRC-verify) it, three times.
	var fs *stream.FileStream
	var setups []float64
	for range 3 {
		if fs != nil {
			fs.Close()
		}
		t := time.Now()
		src := graph.RandomEdgeSource(n, m, maxW, rand.New(rand.NewSource(cfg.seed)))
		written, err := stream.ShuffleToFile(path, n, src, rand.New(rand.NewSource(cfg.seed+1)), 0)
		if err != nil {
			r.fail(fmt.Errorf("shuffle: %w", err))
			return
		}
		if fs, err = stream.OpenFile(path); err != nil {
			r.fail(fmt.Errorf("open stream: %w", err))
			return
		}
		setups = append(setups, time.Since(t).Seconds())
		r.check(written == m && fs.Len() == m, "stream holds %d/%d edges, want %d", written, fs.Len(), m)
	}
	defer fs.Close()

	var acct stream.Accountant
	arena := &randarrival.Arena{}
	var times, allocs []float64
	var first randarrival.WeightedResult
	var firstEdges []graph.Edge
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if r.ctx.Err() != nil {
			return
		}
		r.attempted++
		acct.Reset()
		opts := randarrival.WeightedOptions{
			PrefixFraction: prefixFraction, Beta: beta,
			Rng: rand.New(rand.NewSource(cfg.seed)), Account: &acct, Arena: arena,
		}
		a0 := totalAlloc()
		t := time.Now()
		res := randarrival.RandArrMatching(n, fs, opts)
		d := time.Since(t)
		a1 := totalAlloc()
		times = append(times, ms(d))
		allocs = append(allocs, float64(a1-a0)/mb)
		if !r.check(fs.Err() == nil, "pass %d: stream read fault: %v", len(times), fs.Err()) ||
			!r.check(res.Passes == 1, "pass %d consumed %d stream passes, want 1", len(times), res.Passes) {
			continue
		}
		if firstEdges == nil {
			first, firstEdges = res, sortedEdges(res.M.Edges())
			continue
		}
		r.check(res.Branch == first.Branch && slices.Equal(sortedEdges(res.M.Edges()), firstEdges),
			"pass %d: matching differs from the first pass's", len(times))
	}
	if firstEdges == nil {
		return
	}

	// Output check: one more pass over a fresh handle finds every matched
	// edge in the stream and computes the local-ratio cover bound Σα.
	bound, err := checkStreamMatching(path, n, first)
	if err != nil {
		r.fail(err)
		return
	}
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

	// Traced run: replay the pass phase by phase, three times, and split
	// the arrival loop with a drain-only and a drain-plus-Residual pass.
	var reps []streamPhases
	rp := newStreamReplay(n)
	for range 3 {
		if r.ctx.Err() != nil {
			return
		}
		ph, err := rp.run(fs, cfg.seed, &acct)
		if err != nil {
			r.fail(err)
			return
		}
		r.check(ph.branch == first.Branch && slices.Equal(sortedEdges(ph.m.Edges()), firstEdges),
			"replay matching (%s) differs from RandArrMatching's (%s)", ph.branch, first.Branch)
		r.check(ph.tSize == first.TSize, "replay |T| %d, RandArrMatching %d", ph.tSize, first.TSize)
		reps = append(reps, ph)
	}
	slices.SortFunc(reps, func(a, b streamPhases) int { return int(a.wall - b.wall) })
	ph := reps[len(reps)/2]
	total, prefix := float64(m), float64(ph.prefixLen)
	rest := total - prefix
	read := float64(ph.drain)
	filter := float64(ph.residual - ph.drain)
	feed := float64(ph.init+ph.loop) - read*rest/total - filter
	r.layer["stream.read_ns"] = read / total
	r.layer["stream.arrival_ns"] = median(times) * float64(time.Millisecond) / total
	r.layer["stream.peak_words"] = float64(first.PeakWords)
	r.layer["localratio.prefix_ms"] = (float64(ph.prefix+ph.unwind) - read*prefix/total) / float64(time.Millisecond)
	r.layer["localratio.filter_ns"] = filter / rest
	r.layer["randarrival.feed_ns"] = feed / rest
	r.layer["randarrival.stack_ms"] = ms(ph.stack)
	r.layer["randarrival.finalize_ms"] = ms(ph.finalize)
	r.layer["randarrival.t_ratio"] = float64(first.TSize) / total
	r.layer["trace.coverage"] = float64(ph.prefix+ph.unwind+ph.init+ph.loop+ph.stack+ph.finalize) / float64(ph.wall)
	r.layer["trace.overhead"] = ms(ph.wall) / median(times)
}

// checkStreamMatching streams the file once more: every matched edge must
// occur in it with its weight, no vertex may be matched twice, and the
// local-ratio pass over the whole stream yields the cover bound Σα that
// certifies the approximation ratio.
func checkStreamMatching(path string, n int, res randarrival.WeightedResult) (graph.Weight, error) {
	fs, err := stream.OpenFile(path)
	if err != nil {
		return 0, fmt.Errorf("reopen stream: %w", err)
	}
	defer fs.Close()
	matched := res.M.Edges()
	want := newEdgeSet(matched)
	found := edgeSet{}
	p := localratio.New(n)
	for {
		e, ok := fs.Next()
		if !ok {
			break
		}
		if c := e.Canonical(); want[c] > 0 {
			found[c] = 1
		}
		p.Process(e)
	}
	if err := fs.Err(); err != nil {
		return 0, fmt.Errorf("check pass: %w", err)
	}
	if err := validateMatching(n, matched, res.M.Weight(), found); err != nil {
		return 0, err
	}
	return p.CoverBound(), nil
}

// streamReplay re-executes RandArrMatching's phases from the public entry
// points of localratio and randarrival, with its own retained arenas.
type streamReplay struct {
	n    int
	proc *localratio.Processor
	wap  randarrival.WgtAugPaths
	tSet []graph.Edge
	tBuf []graph.Edge
}

// streamPhases is one replayed pass, timed phase by phase, plus the two
// reference passes that split the arrival loop.
type streamPhases struct {
	prefix, unwind, init, loop, stack, finalize time.Duration
	wall                                        time.Duration
	drain, residual                             time.Duration
	prefixLen, tSize                            int
	m                                           *graph.Matching
	branch                                      string
}

func newStreamReplay(n int) *streamReplay {
	return &streamReplay{n: n, proc: localratio.New(n)}
}

func (rp *streamReplay) run(fs *stream.FileStream, seed int64, acct *stream.Accountant) (streamPhases, error) {
	var ph streamPhases
	acct.Reset()
	rng := rand.New(rand.NewSource(seed))
	fs.Reset()
	prefix := int(prefixFraction * float64(fs.Len()))
	ph.prefixLen = prefix

	t0 := time.Now()
	proc := rp.proc
	proc.Reset(rp.n)
	proc.SetAccountant(acct)
	for i := 0; i < prefix; i++ {
		e, ok := fs.Next()
		if !ok {
			break
		}
		proc.Process(e)
	}
	t1 := time.Now()
	m0 := proc.Unwind()
	proc.Freeze()
	t2 := time.Now()
	rp.wap.Init(m0, beta, rng, acct)
	t3 := time.Now()
	tSet := rp.tSet[:0]
	for {
		e, ok := fs.Next()
		if !ok {
			break
		}
		if proc.Residual(e) > 0 {
			tSet = append(tSet, e)
			acct.Hold(1)
		}
		rp.wap.Feed(e)
	}
	rp.tSet = tSet
	t4 := time.Now()
	m1, err := stackMatching(rp.n, proc, tSet)
	if err != nil {
		return ph, err
	}
	t5 := time.Now()
	m2 := rp.wap.Finalize()
	t6 := time.Now()
	if err := fs.Err(); err != nil {
		return ph, fmt.Errorf("replay pass: %w", err)
	}
	ph.prefix, ph.unwind, ph.init = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	ph.loop, ph.stack, ph.finalize = t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)
	ph.wall, ph.tSize = t6.Sub(t0), len(tSet)
	if m2.Weight() > m1.Weight() {
		ph.m, ph.branch = m2, "augment"
	} else {
		ph.m, ph.branch = m1, "stack"
	}

	// Reference passes under the frozen potentials: reads alone, then
	// reads plus the T-set filter on the post-prefix arrivals.
	fs.Reset()
	t := time.Now()
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
	}
	ph.drain = time.Since(t)
	fs.Reset()
	buf := rp.tBuf[:0]
	t = time.Now()
	for i := 0; ; i++ {
		e, ok := fs.Next()
		if !ok {
			break
		}
		if i >= prefix && proc.Residual(e) > 0 {
			buf = append(buf, e)
		}
	}
	ph.residual = time.Since(t)
	rp.tBuf = buf
	if err := fs.Err(); err != nil {
		return ph, fmt.Errorf("reference pass: %w", err)
	}
	return ph, nil
}

// stackMatching is Algorithm 2 lines 14–17 as randarrival builds it: a
// greedy matching on T by residual weight (ties by endpoints), with the
// local-ratio stack unwound on top.
func stackMatching(n int, proc *localratio.Processor, tSet []graph.Edge) (*graph.Matching, error) {
	type resEdge struct {
		e graph.Edge
		r graph.Weight
	}
	byResidual := make([]resEdge, len(tSet))
	for i, e := range tSet {
		byResidual[i] = resEdge{e, proc.Residual(e)}
	}
	slices.SortFunc(byResidual, func(a, b resEdge) int {
		if a.r != b.r {
			if a.r > b.r {
				return -1
			}
			return 1
		}
		if a.e.U != b.e.U {
			return a.e.U - b.e.U
		}
		return a.e.V - b.e.V
	})
	m1 := graph.NewMatching(n)
	for _, re := range byResidual {
		if !m1.IsMatched(re.e.U) && !m1.IsMatched(re.e.V) {
			if err := m1.Add(re.e); err != nil {
				return nil, fmt.Errorf("stack matching: %w", err)
			}
		}
	}
	proc.UnwindInto(m1)
	return m1, nil
}
