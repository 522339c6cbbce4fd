package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is the metric part of BENCHMARK.json.
type declared struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclaredMetrics pins BENCHMARK.json to the metric tables the
// program reports from.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	check := func(kind string, defs []metricDef, got map[string]string) {
		want := map[string]string{}
		for _, m := range defs {
			want[m.name] = m.unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", kind, name, got[name], unit)
			}
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
}

// TestWorkloadsQuick runs every workload, untraced and traced, through
// the benchmark's own code path at a tiny size: 8 cells, 10 timed steps,
// 6 jobs.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rc := runConfig{workload: w, seed: 1, seconds: 1, trace: trace, workDir: dir,
					scale: scale{cells: 8, steps: 10, jobs: 6}, log: testLog{t}}
				if trace {
					rc.traceFile = filepath.Join(dir, "trace.json")
				}
				rep, err := run(rc)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range rep.gates {
					if !g.ok {
						t.Errorf("gate %s failed: %s", g.name, g.detail)
					}
				}
				if rep.failed != 0 || rep.attempted < 1 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				out, err := result(rep, trace)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, declared %d", len(out.Metrics), len(defs))
				}
				for name, m := range out.Metrics {
					if !metricName.MatchString(name) || m.Unit == "" {
						t.Errorf("metric %q (unit %q) is not a valid name with a unit", name, m.Unit)
					}
				}
				if trace {
					b, err := os.ReadFile(rc.traceFile)
					if err != nil {
						t.Fatal(err)
					}
					var tf struct {
						TraceEvents []chromeEvent `json:"traceEvents"`
					}
					if err := json.Unmarshal(b, &tf); err != nil {
						t.Fatal(err)
					}
					if len(tf.TraceEvents) == 0 {
						t.Error("trace file holds no spans")
					}
				}
				// The service's temporary stores are removed.
				left, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range left {
					if e.Name() != "trace.json" {
						t.Errorf("left behind %s", e.Name())
					}
				}
			})
		}
	}
}

// testLog sends the benchmark's report lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
