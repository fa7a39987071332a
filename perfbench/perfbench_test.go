package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricTablesMatchSpec keeps the emitted metric tables and the
// workload list identical to BENCHMARK.json, names and units alike.
func TestMetricTablesMatchSpec(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloads, names)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []specMetric
	}{{endToEnd, s.EndToEnd}, {perLayer, s.PerLayer}} {
		var got []specMetric
		for _, d := range c.defs {
			got = append(got, specMetric{d.name, d.unit})
		}
		if !slices.Equal(got, c.spec) {
			t.Errorf("metric table %v\nBENCHMARK.json %v", got, c.spec)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: each
// run must pass all its output and reconciliation checks and emit every
// declared metric with its unit, the end-to-end ones non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds augserve and runs every workload")
	}
	s := readSpec(t)
	bin := filepath.Join(t.TempDir(), "augserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/augserve").CombinedOutput(); err != nil {
		t.Fatalf("build augserve: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl + "/untraced"
			want := s.EndToEnd
			if trace {
				name, want = wl+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res := execute(context.Background(), config{
					workload: wl, seed: 7, seconds: 1, trace: trace,
					augserve: bin, workdir: t.TempDir(), tiny: true,
				})
				if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
