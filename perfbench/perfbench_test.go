package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricTables checks that BENCHMARK.json lists exactly the workloads
// and metrics (with their units) the program reports.
func TestMetricTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads(fullSizes) {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, tc := range []struct {
		listed []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		units map[string]string
	}{{bj.EndToEnd, endToEndUnits}, {bj.PerLayer, perLayerUnits}} {
		if len(tc.listed) != len(tc.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(tc.listed), len(tc.units))
		}
		for _, m := range tc.listed {
			if u, ok := tc.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q (reported: %t)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

// exactCounts are the metrics that must repeat exactly at one seed.
var exactCounts = []string{
	"setup_writes", "reads_per_query", "writes_per_query", "writes_per_update",
	"conn.build_writes", "bicc.build_writes", "conn.reads_per_query", "bicc.reads_per_query",
	"update.publish_writes", "update.lazy_build_writes",
}

// TestSteadyTiny runs tiny versions of every workload twice at one seed,
// untraced and traced, and checks that every metric is printed with its
// unit, that the exact counts repeat, and that no operation failed.
func TestSteadyTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs oracled")
	}
	dir := t.TempDir()
	oracled := filepath.Join(dir, "oracled")
	build := exec.Command("go", "build", "-o", oracled, "repro/cmd/oracled")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build oracled: %v", err)
	}
	for _, w := range workloads(tinySizes) {
		for _, trace := range []bool{false, true} {
			units := endToEndUnits
			if trace {
				units = perLayerUnits
			}
			var runs [2]*result
			for i := range runs {
				cfg := config{
					w: w, sz: tinySizes, seed: 3, seconds: 0.3, trace: trace, oracled: oracled,
					workDir: filepath.Join(dir, "run"), traceOut: filepath.Join(dir, "trace"), log: io.Discard,
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("%s trace=%t run %d: %v", w.name, trace, i, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s trace=%t run %d: correct=%t attempted=%d failed=%d",
						w.name, trace, i, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%s trace=%t: %d metrics printed, want %d", w.name, trace, len(res.Metrics), len(units))
				}
				for name, unit := range units {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("%s trace=%t: metric %s printed as %+v, want unit %q", w.name, trace, name, m, unit)
					}
				}
				runs[i] = res
			}
			for _, name := range exactCounts {
				a, ok := runs[0].Metrics[name]
				if ok && a != runs[1].Metrics[name] {
					t.Errorf("%s trace=%t: %s %v then %v, want identical", w.name, trace, name, a.Value, runs[1].Metrics[name].Value)
				}
			}
			for name := range units {
				if strings.HasPrefix(name, "update.rung.") && runs[0].Metrics[name] != runs[1].Metrics[name] {
					t.Errorf("%s: %s %v then %v, want identical", w.name, name, runs[0].Metrics[name].Value, runs[1].Metrics[name].Value)
				}
			}
		}
	}
}
