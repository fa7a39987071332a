package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// The serve-mixed load: one client process, one connection for writes
// (edits, ticks, snapshots, in order) and one for reads, on a fixed open
// loop schedule. Every request is timed from when it was due.
const (
	editEvery  = 50 * time.Millisecond  // 20 edits per second
	tickEvery  = 500 * time.Millisecond // so every tick applies 10 edits
	readEvery  = 20 * time.Millisecond
	snapTicks  = 20 // a snapshot every 20 ticks (10 s), the first mid-run
	reqTimeout = time.Second
	bandLow    = 100 // the bed's weights and every edit's lie in [bandLow, 2·bandLow)
	bedSeed    = 1   // generator seed of the bed, the E18 bed at its default seed
	editSeed   = 2   // generator seed of the edit trace

	// augserve passes no round budget, so Runner.Tick re-converges under
	// core's default MaxRounds and Patience.
	tickMaxRounds = 40
	tickPatience  = 6
)

var opNames = map[core.MutationOp]string{core.MutInsert: "insert", core.MutDelete: "delete", core.MutReweight: "reweight"}

// genEdits pre-generates a mixed insert/delete/reweight stream against a
// shadow copy of the graph, so every delete and reweight names an edge
// that exists when the server applies it. It returns the edits and the
// shadow graph after all of them.
func genEdits(g *graph.Graph, count int, rng *rand.Rand) ([]core.Mutation, *graph.Graph, error) {
	sim := g.Clone()
	ops := make([]core.Mutation, 0, count)
	for len(ops) < count {
		kind := core.MutationOp(rng.Intn(3))
		if sim.M() == 0 {
			kind = core.MutInsert
		}
		var op core.Mutation
		switch kind {
		case core.MutInsert:
			u, v := rng.Intn(sim.N()), rng.Intn(sim.N())
			if u == v {
				continue
			}
			op = core.Mutation{Op: kind, U: u, V: v, W: bandLow + graph.Weight(rng.Int63n(bandLow))}
			if err := sim.AddEdge(graph.Edge{U: u, V: v, W: op.W}); err != nil {
				return nil, nil, err
			}
		default:
			e := sim.EdgeAt(rng.Intn(sim.M()))
			op = core.Mutation{Op: kind, U: e.U, V: e.V}
			i, _ := sim.FindEdge(e.U, e.V) // the edge the server's FindEdge will pick
			if kind == core.MutDelete {
				if _, err := sim.RemoveEdgeAt(i); err != nil {
					return nil, nil, err
				}
			} else {
				op.W = bandLow + graph.Weight(rng.Int63n(bandLow))
				if err := sim.SetEdgeWeight(i, op.W); err != nil {
					return nil, nil, err
				}
			}
		}
		ops = append(ops, op)
	}
	return ops, sim, nil
}

// serverProc is one augserve subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	once sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startServer launches augserve on a free port and waits for /healthz.
// A port taken between the probe and the bind shows as an early exit;
// that is retried on a fresh port.
func startServer(ctx context.Context, bin, graphPath, snapPath string, seed int64) (*serverProc, error) {
	var lastErr error
	for range 3 {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		cmd := exec.Command(bin, "-input", graphPath, "-addr", "127.0.0.1:"+port,
			"-tick", "0", "-snapshot", snapPath, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		// The server must not outlive the benchmark, even when the
		// benchmark itself is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start augserve: %w", err)
		}
		p := &serverProc{cmd: cmd, base: "http://127.0.0.1:" + port, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed server carries nothing
			close(p.done)
		}()
		if lastErr = p.waitHealthy(ctx); lastErr == nil {
			return p, nil
		}
		p.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (p *serverProc) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: reqTimeout}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("augserve exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("augserve not healthy after 30s")
}

// stop kills the server and waits until it has exited.
func (p *serverProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // fails only if it already exited; done closes either way
		<-p.done
	})
}

// post sends one request and decodes a JSON response into out (if
// non-nil), failing on any non-2xx status.
func post(ctx context.Context, c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Wire forms of the responses the checks read.
type tickResp struct {
	Tick    int          `json:"tick"`
	Applied int          `json:"applied"`
	Weight  graph.Weight `json:"weight"`
	Error   string       `json:"error"`
}

type matchingResp struct {
	Weight graph.Weight `json:"weight"`
	Size   int          `json:"size"`
	Tick   int          `json:"tick"`
	Edges  []graph.Edge `json:"edges"`
}

type editReq struct {
	Op string       `json:"op"`
	U  int          `json:"u"`
	V  int          `json:"v"`
	W  graph.Weight `json:"w,omitempty"`
}

// Request kinds of the load.
const (
	kindEdit = iota
	kindTick
	kindSnapshot
	kindRead
)

// request is one scheduled request and its outcome; times are offsets
// from the start of the load.
type request struct {
	kind            int
	due, sent, done time.Duration
	body            []byte
	err             error
	tick            tickResp     // kindTick
	read            matchingResp // kindRead (edges dropped)
	applied         int          // kindTick: edits queued since the previous tick
}

// schedule lays out the write connection's requests in send order (each
// tick's edits, the tick, and a snapshot after every snapTicks-th tick
// from the middle one) and the read connection's requests.
func schedule(perTick [][]core.Mutation) (writes, reads []*request, err error) {
	edits := 0
	for j, batch := range perTick {
		for _, op := range batch {
			body, err := json.Marshal([]editReq{{Op: opNames[op.Op], U: op.U, V: op.V, W: op.W}})
			if err != nil {
				return nil, nil, err
			}
			edits++
			writes = append(writes, &request{kind: kindEdit, due: time.Duration(edits) * editEvery, body: body})
		}
		due := time.Duration(j+1) * tickEvery
		writes = append(writes, &request{kind: kindTick, due: due, applied: len(batch)})
		if (j+1)%snapTicks == max(len(perTick)/2, 1)%snapTicks {
			writes = append(writes, &request{kind: kindSnapshot, due: due})
		}
	}
	end := time.Duration(len(perTick)) * tickEvery
	for due := time.Duration(0); due < end; due += readEvery {
		reads = append(reads, &request{kind: kindRead, due: due})
	}
	return writes, reads, nil
}

// drive sends the requests of one connection in order, each no earlier
// than its due time.
func drive(ctx context.Context, base string, start time.Time, reqs []*request) {
	c := &http.Client{Timeout: reqTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	defer c.CloseIdleConnections()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, q := range reqs {
		if wait := q.due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
		q.sent = time.Since(start)
		switch q.kind {
		case kindEdit:
			q.err = post(ctx, c, http.MethodPost, base+"/mutate", q.body, nil)
		case kindTick:
			q.err = post(ctx, c, http.MethodPost, base+"/tick", nil, &q.tick)
		case kindSnapshot:
			q.err = post(ctx, c, http.MethodPost, base+"/snapshot", nil, nil)
		case kindRead:
			q.err = post(ctx, c, http.MethodGet, base+"/matching", nil, &q.read)
			q.read.Edges = nil
		}
		q.done = time.Since(start)
	}
}

// tickReplay is the in-process replay of the served edit and tick
// sequence through core.Runner: the reference every /tick response and
// read is checked against, and the source of the Tick split.
type tickReplay struct {
	weights   []graph.Weight // weights[k] = matching weight after server tick k (1-based)
	m         *graph.Matching
	stats     core.Stats // after every tick
	loadStats core.Stats // accumulated by the load's ticks alone
	apply     []float64  // per load tick, ms
	reconv    []float64
	roundMs   []float64
	allocs    []float64 // MB per load tick
	wall      time.Duration
}

func replayTicks(g0 *graph.Graph, seed int64, ticks [][]core.Mutation) (*tickReplay, error) {
	g := g0.Clone()
	tr := &tickReplay{weights: make([]graph.Weight, 1, len(ticks)+2), m: graph.NewMatching(g.N())}
	runner := core.NewRunner(g, core.Options{Amortize: true, Rng: rand.New(core.NewCountingSource(seed))})
	var roundMs *[]float64 // the load's rounds are timed, the initial converge's not
	round := func() (graph.Weight, error) {
		t := time.Now()
		gain, err := runner.Round(tr.m, &tr.stats)
		if roundMs != nil {
			*roundMs = append(*roundMs, ms(time.Since(t)))
		}
		return gain, err
	}
	if err := converge(tickMaxRounds, tickPatience, round); err != nil {
		return nil, err
	}
	roundMs = &tr.roundMs
	tr.weights = append(tr.weights, tr.m.Weight())
	before := tr.stats
	start := time.Now()
	for _, ops := range ticks {
		var b core.MutationBatch
		b.Extend(ops)
		a0 := totalAlloc()
		t0 := time.Now()
		if err := runner.ApplyMutations(&b, tr.m, &tr.stats); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := converge(tickMaxRounds, tickPatience, round); err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.allocs = append(tr.allocs, float64(totalAlloc()-a0)/mb)
		tr.apply = append(tr.apply, ms(t1.Sub(t0)))
		tr.reconv = append(tr.reconv, ms(t2.Sub(t1)))
		tr.weights = append(tr.weights, tr.m.Weight())
	}
	tr.wall = time.Since(start)
	tr.loadStats = subStats(tr.stats, before)
	return tr, nil
}

// subStats is a − b, counter by counter.
func subStats(a, b core.Stats) core.Stats {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := range av.NumField() {
		av.Field(i).SetInt(av.Field(i).Int() - bv.Field(i).Int())
	}
	return a
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// runServe drives augserve under the open-loop load, then replays the
// same edit and tick sequence in-process and checks every response
// against it.
func runServe(r *run) {
	cfg := r.cfg
	n, m := 240, 1920
	if cfg.tiny {
		n, m = 40, 200
	}
	ticks := max(int(time.Duration(cfg.seconds*float64(time.Second))/tickEvery), 1)
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		r.fail(err)
		return
	}
	defer os.RemoveAll(dir)

	// The bed and the edit trace are fixed, as a recorded service workload
	// is; the seed drives the server's bipartition stream (-seed). With an
	// edit stream per seed the median tick moved up to 30% between seeds:
	// a few streams make every tick re-converge over costlier classes.
	g := graph.BandedWeights(n, m, bandLow, rand.New(rand.NewSource(bedSeed))).G
	graphPath, snapPath := filepath.Join(dir, "bed.txt"), filepath.Join(dir, "state.snap")
	if err := writeGraph(graphPath, g); err != nil {
		r.fail(err)
		return
	}

	// Set-up: process start through the first converged tick, five times
	// under five server seeds drawn from the run's seed (convergence from
	// the empty matching takes a seed-dependent number of rounds); the last
	// server, seeded with the run's seed, takes the load.
	const setupStarts = 5
	var srv *serverProc
	var setups []float64
	var firstTick tickResp
	for i := range setupStarts {
		serverSeed := cfg.seed + int64(setupStarts-1-i)*1_000_003
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		srv, err = startServer(r.ctx, cfg.augserve, graphPath, snapPath, serverSeed)
		if err != nil {
			r.fail(err)
			return
		}
		defer srv.stop()
		if err := post(r.ctx, &http.Client{Timeout: 30 * time.Second}, http.MethodPost, srv.base+"/tick", nil, &firstTick); err != nil {
			r.fail(fmt.Errorf("first tick: %w", err))
			return
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	edits, final, err := genEdits(g, ticks*int(tickEvery/editEvery), rand.New(rand.NewSource(editSeed)))
	if err != nil {
		r.fail(err)
		return
	}
	perTick := make([][]core.Mutation, ticks)
	for j := range perTick {
		perTick[j] = edits[j*len(edits)/ticks : (j+1)*len(edits)/ticks]
	}

	writes, reads, err := schedule(perTick)
	if err != nil {
		r.fail(err)
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range [][]*request{writes, reads} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(r.ctx, srv.base, start, reqs)
		}()
	}
	wg.Wait()
	if r.ctx.Err() != nil {
		return
	}

	// Final state, then stop the server before the replays.
	client := &http.Client{Timeout: 10 * time.Second}
	var end matchingResp
	statsWire := map[string]int64{}
	errEnd := post(r.ctx, client, http.MethodGet, srv.base+"/matching", nil, &end)
	errStats := post(r.ctx, client, http.MethodGet, srv.base+"/stats", nil, &statsWire)
	rss, errRSS := peakRSS(strconv.Itoa(srv.cmd.Process.Pid))
	srv.stop()
	for _, err := range []error{errEnd, errStats, errRSS} {
		if err != nil {
			r.fail(err)
			return
		}
	}

	// Replay the served edit and tick sequence in-process through
	// core.Runner, three times. The first replay is the reference every
	// response is checked against; all three time the tick's work for
	// solve_ms. The HTTP tick latency itself is reported per layer: the
	// server computes for only ~130 ms of every 500 ms, and on a 2-vCPU VM
	// the median of those bursts swung 20-30% between runs, beyond any
	// bound the benchmark may set.
	const tickReplays = 3
	var tr *tickReplay
	var tickMs, applyMs, reconvMs, roundMs, replayWalls []float64
	for i := range tickReplays {
		rt, err := replayTicks(g, cfg.seed, perTick)
		if err != nil {
			r.fail(fmt.Errorf("runner replay: %w", err))
			return
		}
		if tr == nil {
			tr = rt
		} else {
			r.check(slices.Equal(rt.weights, tr.weights), "runner replay %d: tick weights differ from the first replay's", i+1)
		}
		for j := range rt.apply {
			tickMs = append(tickMs, rt.apply[j]+rt.reconv[j])
		}
		applyMs = append(applyMs, rt.apply...)
		reconvMs = append(reconvMs, rt.reconv...)
		roundMs = append(roundMs, rt.roundMs...)
		replayWalls = append(replayWalls, float64(rt.wall))
	}
	weightAt := func(tick int) (graph.Weight, bool) {
		if tick < 1 || tick >= len(tr.weights) {
			return 0, false
		}
		return tr.weights[tick], true
	}

	// Check every response against the replay.
	r.check(firstTick.Tick == 1 && firstTick.Weight == tr.weights[1],
		"first tick: tick %d weight %d, replay weight %d", firstTick.Tick, firstTick.Weight, tr.weights[1])
	var tickLat, tickLag, readLat, mutLat, snapMs, lags []float64
	var tickSpans [][2]time.Duration
	failed := 0
	lastTick, snapTick := 0, 0
	for _, q := range slices.Concat(writes, reads) {
		r.attempted++
		lags = append(lags, ms(q.sent-q.due))
		if q.err != nil {
			failed++
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", q.err)
			continue
		}
		lat := ms(q.done - q.due)
		switch q.kind {
		case kindEdit:
			mutLat = append(mutLat, lat)
		case kindTick:
			tickLat = append(tickLat, lat)
			tickLag = append(tickLag, ms(q.sent-q.due))
			tickSpans = append(tickSpans, [2]time.Duration{q.sent, q.done})
			want, ok := weightAt(q.tick.Tick)
			r.check(ok && q.tick.Error == "" && q.tick.Applied == q.applied && q.tick.Weight == want,
				"tick %d: applied %d/%d, weight %d, replay %d, error %q",
				q.tick.Tick, q.tick.Applied, q.applied, q.tick.Weight, want, q.tick.Error)
			lastTick = q.tick.Tick
		case kindSnapshot:
			snapMs = append(snapMs, ms(q.done-q.sent))
			snapTick = lastTick
		case kindRead:
			readLat = append(readLat, lat)
			want, ok := weightAt(q.read.Tick)
			r.check(ok && q.read.Weight == want, "read at tick %d: weight %d, replay %d", q.read.Tick, q.read.Weight, want)
		}
	}
	blocked := 0
	for _, q := range reads {
		for _, s := range tickSpans {
			if q.err == nil && q.sent < s[1] && s[0] < q.done {
				blocked++
				break
			}
		}
	}
	if n := len(tickLag); n > 0 {
		r.check(tickLag[n-1] < ms(tickEvery), "ticks fell behind schedule: the last tick was sent %.0f ms late", tickLag[n-1])
	}
	if snapTick > 0 {
		if err := checkSnapshot(snapPath, snapTick, tr); err != nil {
			r.fail(err)
		}
	}

	// The final matching: a valid matching of the post-edit graph, the
	// replay's matching edge for edge, and the server's counters equal to
	// the replay's with every fallback rung unused.
	if err := validateMatching(final.N(), end.Edges, end.Weight, newEdgeSet(final.Edges())); err != nil {
		r.fail(fmt.Errorf("final matching: %w", err))
	}
	r.check(end.Tick == ticks+1 && slices.Equal(sortedEdges(end.Edges), sortedEdges(tr.m.Edges())),
		"final matching at tick %d differs from the replay's", end.Tick)
	for _, f := range tr.stats.Fields() {
		got, ok := statsWire[f.Name]
		r.check(ok && got == f.Value, "stats %s: server %d, replay %d", f.Name, got, f.Value)
		if strings.HasPrefix(f.Name, "fallback-") {
			r.check(got == 0, "stats %s = %d, want 0", f.Name, got)
		}
	}

	r.e2e["setup_s"] = median(setups)
	r.e2e["solve_ms"] = median(tickMs)
	r.e2e["weight_ratio"] = float64(end.Weight) / float64(coverBound(final.N(), final.Edges()))
	r.e2e["alloc_mb"] = median(tr.allocs)
	r.e2e["rss_mb"] = rss
	if !cfg.trace {
		return
	}

	r.layer["core.apply_ms"] = mean(applyMs)
	r.layer["core.reconverge_ms"] = mean(reconvMs)
	r.layer["core.round_ms_p50"] = median(roundMs)
	r.layer["core.round_ms_p90"] = quantile(roundMs, 0.9)
	ls := tr.loadStats
	reportStats(r.layer, ls, ticks)
	r.layer["core.rounds"] = float64(ls.Rounds) / float64(ticks)
	r.layer["core.mutation_delta_builds"] = float64(ls.MutationDeltaBuilds) / float64(ticks)
	r.layer["core.mutation_index_resets"] = float64(ls.MutationIndexResets) / float64(ticks)
	r.layer["augserve.tick_p50_ms"] = median(tickLat)
	r.layer["augserve.tick_p90_ms"] = quantile(tickLat, 0.9)
	r.layer["augserve.snapshot_ms"] = median(snapMs)
	r.layer["augserve.read_p50_ms"] = median(readLat)
	r.layer["augserve.read_p99_ms"] = quantile(readLat, 0.99)
	r.layer["augserve.mutate_p99_ms"] = quantile(mutLat, 0.99)
	r.layer["augserve.read_blocked_frac"] = ratio(blocked, len(reads))
	r.layer["augserve.failed_frac"] = ratio(failed, len(writes)+len(reads))
	r.layer["gen.lag_p99_ms"] = quantile(lags, 0.99)

	// Traced run: the same ticks through the layer entry points.
	e, err := newEngine(g.Clone(), core.Options{}, rand.New(core.NewCountingSource(cfg.seed)))
	if err != nil {
		r.fail(err)
		return
	}
	if err := converge(tickMaxRounds, tickPatience, e.round); err != nil {
		r.fail(err)
		return
	}
	e.clock, e.counts = stageClock{}, stageCounts{}
	t := time.Now()
	for j, ops := range perTick {
		if err := e.apply(ops); err != nil {
			r.fail(err)
			return
		}
		if err := converge(tickMaxRounds, tickPatience, e.round); err != nil {
			r.fail(err)
			return
		}
		r.check(e.m.Weight() == tr.weights[j+2], "replay tick %d: weight %d, runner %d", j+2, e.m.Weight(), tr.weights[j+2])
	}
	rep := replayRun{e: e, wall: time.Since(t)}
	rep.report(r.layer, ticks)
	r.check(slices.Equal(sortedEdges(e.m.Edges()), sortedEdges(tr.m.Edges())), "replay's final matching differs from the runner's")
	c := e.counts
	r.check(c.solves == ls.SolverCalls+ls.CacheHits && c.layeredBuilt == ls.LayeredBuilt && c.rounds == ls.Rounds,
		"replay solved %d pairs of %d charged in %d rounds, runner %d of %d in %d",
		c.solves, c.layeredBuilt, c.rounds, ls.SolverCalls+ls.CacheHits, ls.LayeredBuilt, ls.Rounds)
	r.layer["trace.overhead"] = float64(rep.wall) / median(replayWalls)
}

// checkSnapshot loads the checkpoint the last snapshot wrote (each one
// overwrites the previous) and checks it holds the state after the tick
// that preceded it on the write connection.
func checkSnapshot(path string, tick int, tr *tickReplay) error {
	cp, err := core.LoadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("load snapshot: %w", err)
	}
	if cp.Round != tick || tick >= len(tr.weights) || cp.M.Weight() != tr.weights[tick] {
		return fmt.Errorf("snapshot holds tick %d weight %d, want tick %d", cp.Round, cp.M.Weight(), tick)
	}
	return nil
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write graph: %w", err)
	}
	return f.Close()
}
