package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json this package must
// agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", spec.PerLayer, perLayer)
	}
}

// TestTinyRuns runs every workload on tiny inputs, untraced and traced,
// and checks that the result line names every metric with its unit and
// that no op failed.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"--workload", w, "--seed", "7", "--seconds", "0.2", "--trace", trace,
					"--tiny", "--out", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				if !strings.Contains(stdout.String(), "error_ratio 0 (ratio)") {
					t.Errorf("report lacks error_ratio 0:\n%s", stdout.String())
				}
				for _, name := range []string{"op_p99_ms", "ops_per_s"} {
					if trace == "0" && !strings.Contains(stdout.String(), "# "+name+" ") {
						t.Errorf("report lacks %s:\n%s", name, stdout.String())
					}
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", d.Name, m, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", StartMs: 0, EndMs: 10},
		{ID: 2, Parent: 1, StartMs: 1, EndMs: 3},
		{ID: 3, Parent: 1, StartMs: 2, EndMs: 5},
		{ID: 4, Parent: 1, StartMs: 8, EndMs: 9},
		{ID: 5, Parent: 4, StartMs: 8, EndMs: 9},
	}}
	if got := tr.selfMs(1); got != 5 {
		t.Errorf("self time %v, want 5 (10 minus the union [1,5] and [8,9])", got)
	}
	if got := tr.selfMs(4); got != 0 {
		t.Errorf("self time %v, want 0 (fully covered by its child)", got)
	}
}
