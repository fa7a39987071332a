// Command perfbench is the repository's benchmark: four named workloads
// behind one command, each checking the program's outputs and printing its
// metrics by name and unit as one JSON object on the last line of standard
// output.
//
//	solve-band     amortised core.Solve on BandedWeights(1000, 8000, 100)
//	solve-uniform  amortised core.Solve on UniformWeights(10000, 60000, 128)
//	stream-disk    randarrival.RandArrMatching over a shuffled stream file
//	serve-mixed    cmd/augserve under an open-loop edit/tick/read/snapshot load
//
// With -trace 0 a run prints the end-to-end metrics (endToEnd below); with
// -trace 1 it additionally replays the same work through the public entry
// points of each layer (core, layered, bipartite, stream, localratio,
// randarrival), times the calls from here, reconciles the replay with the
// untraced run, and prints the per-layer metrics (perLayer below) instead.
// The program under test is never modified: every span is recorded around
// a call into it.
//
// Usage, from the repository root (run.sh builds this package and augserve
// into .bench_build/ first):
//
//	bash perfbench/run.sh --workload solve-band --seed 1 --seconds 10 --trace 0
//
// The exit code is 0 only when every output check passed and no operation
// failed; the JSON line is printed either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
)

// Workload names, as BENCHMARK.json lists them.
const (
	solveBand    = "solve-band"
	solveUniform = "solve-uniform"
	streamDisk   = "stream-disk"
	serveMixed   = "serve-mixed"
)

var workloads = []string{solveBand, solveUniform, streamDisk, serveMixed}

// metricDef declares one emitted metric. on lists the workloads that
// exercise the metric's layer; on the others it is emitted as 0, the
// measured value of a layer the workload never calls. An empty on means
// every workload.
type metricDef struct {
	name, unit string
	on         []string
}

var (
	round = []string{solveBand, solveUniform, serveMixed}
	strm  = []string{streamDisk}
	serve = []string{serveMixed}
)

// endToEnd is what a user of the system sees; every workload measures all
// of them. A "solve unit" is one core.Solve (solve-*), one Algorithm 2
// pass (stream-disk) or one POST /tick (serve-mixed).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "solve_ms", unit: "ms"},
	{name: "weight_ratio", unit: "ratio"},
	{name: "alloc_mb", unit: "MB"},
	{name: "rss_mb", unit: "MB"},
}

// perLayer is the traced run's breakdown. Times and counts are per solve
// unit unless the name says per build (_ns_per), per arrival (_ns) or per
// request.
var perLayer = []metricDef{
	{"layered.index_ms", "ms", round},
	{"layered.enum_ms", "ms", round},
	{"layered.build_ms", "ms", round},
	{"layered.build_ns_per", "ns", round},
	{"layered.walks_ms", "ms", round},
	{"bipartite.solve_ms", "ms", round},
	{"bipartite.solve_ns_per", "ns", round},
	{"bipartite.phases_per_solve", "count", round},
	{"bipartite.repair_ratio", "ratio", round},
	{"core.merge_ms", "ms", round},
	{"core.round_ms_p50", "ms", round},
	{"core.round_ms_p90", "ms", round},
	{"layered.builds", "count", round},
	{"layered.delta_builds", "count", round},
	{"layered.enum_pruned", "count", round},
	{"layered.survive_ratio", "ratio", round},
	{"core.cache_hit_ratio", "ratio", round},
	{"core.classes_skipped", "count", round},
	{"core.applied_augs", "count", round},
	{"core.rounds", "count", round},
	{"stream.read_ns", "ns", strm},
	{"stream.arrival_ns", "ns", strm},
	{"stream.peak_words", "words", strm},
	{"localratio.prefix_ms", "ms", strm},
	{"localratio.filter_ns", "ns", strm},
	{"randarrival.feed_ns", "ns", strm},
	{"randarrival.finalize_ms", "ms", strm},
	{"randarrival.stack_ms", "ms", strm},
	{"randarrival.t_ratio", "ratio", strm},
	{"core.apply_ms", "ms", serve},
	{"core.reconverge_ms", "ms", serve},
	{"core.mutation_delta_builds", "count", serve},
	{"core.mutation_index_resets", "count", serve},
	{"augserve.tick_p50_ms", "ms", serve},
	{"augserve.tick_p90_ms", "ms", serve},
	{"augserve.snapshot_ms", "ms", serve},
	{"augserve.read_p50_ms", "ms", serve},
	{"augserve.read_p99_ms", "ms", serve},
	{"augserve.mutate_p99_ms", "ms", serve},
	{"augserve.read_blocked_frac", "ratio", serve},
	{"augserve.failed_frac", "ratio", serve},
	{"gen.lag_p99_ms", "ms", serve},
	{"trace.coverage", "ratio", nil},
	{"trace.overhead", "ratio", nil},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	augserve string // path of the augserve binary (serve-mixed)
	workdir  string // parent of the run's temp directory
	tiny     bool   // shrink every input (the package's smoke test)
}

// run collects one invocation's measurements and check outcomes.
type run struct {
	cfg       config
	ctx       context.Context
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

// check records a failed output check as a failed operation.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records an error that stops the workload.
func (r *run) fail(err error) {
	r.check(false, "%v", err)
}

// metricJSON and resultJSON are the wire form of the last output line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the metric set the trace mode selects. A metric the
// workload should have measured but did not is a failed check, emitted as
// 0 so the line still lists every declared metric.
func (r *run) result() resultJSON {
	defs, got := endToEnd, r.e2e
	if r.cfg.trace {
		defs, got = perLayer, r.layer
	}
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		applies := len(d.on) == 0 || slices.Contains(d.on, r.cfg.workload)
		if applies && !ok {
			r.check(false, "metric %s not measured", d.name)
		}
		if !applies && ok {
			r.check(false, "metric %s measured outside its layer's workloads", d.name)
		}
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return resultJSON{
		Correct:   len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   out,
	}
}

// execute runs the configured workload and returns its result line.
func execute(ctx context.Context, cfg config) resultJSON {
	r := &run{cfg: cfg, ctx: ctx, e2e: map[string]float64{}, layer: map[string]float64{}}
	switch cfg.workload {
	case solveBand, solveUniform:
		runBatch(r)
	case streamDisk:
		runStream(r)
	case serveMixed:
		runServe(r)
	}
	if err := ctx.Err(); err != nil {
		r.check(false, "interrupted: %v", err)
	}
	res := r.result()
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured duration per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.augserve, "augserve", "", "augserve binary (serve-mixed)")
	fs.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for the run's temp files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if !slices.Contains(workloads, cfg.workload) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", cfg.workload, trace, cfg.seconds)
		os.Exit(2)
	}
	if cfg.workload == serveMixed && cfg.augserve == "" {
		fmt.Fprintln(os.Stderr, "perfbench: serve-mixed needs -augserve")
		os.Exit(2)
	}

	// A signal cancels the context; every workload stops at its next check
	// and its deferred cleanup (subprocess, temp files) still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res := execute(ctx, cfg)
	stop()

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}
