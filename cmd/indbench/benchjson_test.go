package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: spider
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2_UniProt_BruteForce-8   	       1	  84123456 ns/op	        22.00 INDs
BenchmarkModern_UniProt25/spider-merge-8         	       1	   7000000 ns/op
BenchmarkKMVShardPlan/planner=kmv-8    	       1	   1418055 ns/op	      1100 items/op	         1.175 skew-max/mean
BenchmarkTiny-8   	 1000000	      105.0 ns/op
PASS
ok  	spider	12.3s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(f.Benchmarks))
	}
	e, ok := f.Benchmarks["Table2_UniProt_BruteForce"]
	if !ok || e.NsPerOp != 84123456 || e.Runs != 1 || e.Samples != 1 {
		t.Fatalf("Table2 entry = %+v ok=%v", e, ok)
	}
	if e.Metrics["INDs"] != 22 {
		t.Fatalf("Table2 metrics = %v, want INDs=22", e.Metrics)
	}
	kmv := f.Benchmarks["KMVShardPlan/planner=kmv"]
	if kmv.Metrics["skew-max/mean"] != 1.175 || kmv.Metrics["items/op"] != 1100 {
		t.Fatalf("KMVShardPlan metrics = %v", kmv.Metrics)
	}
	if f.Benchmarks["Modern_UniProt25/spider-merge"].Metrics != nil {
		t.Fatal("metric map allocated for a line without custom metrics")
	}
	if _, ok := f.Benchmarks["Modern_UniProt25/spider-merge"]; !ok {
		t.Fatal("sub-benchmark path not preserved")
	}
	if e := f.Benchmarks["Tiny"]; e.NsPerOp != 105 || e.Runs != 1000000 {
		t.Fatalf("Tiny entry = %+v", e)
	}
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// TestParseBenchFoldsCount: `go test -count 5` prints five result lines
// per benchmark; they fold into one entry holding the median ns/op and
// metrics, the summed iterations and the sample count, instead of the
// last line alone.
func TestParseBenchFoldsCount(t *testing.T) {
	const out = `BenchmarkNaryMerge/scop-2   12   90000000 ns/op   20556 items/op   24103712 B/op
BenchmarkNaryMerge/scop-2   14   70000000 ns/op   20556 items/op   24103000 B/op
BenchmarkNaryMerge/scop-2   13   80000000 ns/op   20556 items/op   24103500 B/op
BenchmarkNaryMerge/scop-2   15   60000000 ns/op   20556 items/op   24103100 B/op
BenchmarkNaryMerge/scop-2   11  500000000 ns/op   20556 items/op   24103800 B/op
BenchmarkTiny-2   1000   105.0 ns/op
BenchmarkTiny-2   1000   95.0 ns/op
`
	f, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	e := f.Benchmarks["NaryMerge/scop"]
	if e.NsPerOp != 80000000 || e.Samples != 5 || e.Runs != 65 {
		t.Fatalf("NaryMerge/scop entry = %+v, want the median 80000000 ns/op over 5 samples of 65 iterations", e)
	}
	if e.Metrics["items/op"] != 20556 || e.Metrics["B/op"] != 24103500 {
		t.Fatalf("NaryMerge/scop metrics = %v, want the medians", e.Metrics)
	}
	if e := f.Benchmarks["Tiny"]; e.NsPerOp != 100 || e.Samples != 2 {
		t.Fatalf("Tiny entry = %+v, want the mean of the middle two, 100 ns/op, over 2 samples", e)
	}
}

func TestCompareBench(t *testing.T) {
	mk := func(entries map[string]float64) *BenchFile {
		f := &BenchFile{Schema: benchSchema, Benchmarks: map[string]BenchEntry{}}
		for name, ns := range entries {
			f.Benchmarks[name] = BenchEntry{NsPerOp: ns, Runs: 1}
		}
		return f
	}
	base := mk(map[string]float64{
		"Slow":     100e6,
		"Stable":   200e6,
		"Noisy":    1e6,  // both sides below the 50ms floor: never compared
		"Exploded": 10e6, // below the floor in the baseline only
		"Removed":  100e6,
	})
	current := mk(map[string]float64{
		"Slow":     130e6, // +30%: regression at 25% tolerance
		"Stable":   220e6, // +10%: fine
		"Noisy":    40e6,  // still below floor: skipped
		"Exploded": 500e6, // fast benchmark regressed past the floor: must fail
		"New":      500e6,
	})
	var warn strings.Builder
	regs := compareBench(base, current, 0.25, 50e6, &warn)
	if len(regs) != 2 || regs[0].name != "Exploded" || regs[1].name != "Slow" {
		t.Fatalf("regressions = %+v, want Exploded and Slow", regs)
	}
	if regs[1].ratio < 1.29 || regs[1].ratio > 1.31 {
		t.Fatalf("ratio = %v", regs[1].ratio)
	}
	if !strings.Contains(warn.String(), "Removed") || !strings.Contains(warn.String(), "New") {
		t.Fatalf("warnings missing: %q", warn.String())
	}
	// Tightening the tolerance flags Stable too.
	if regs := compareBench(base, current, 0.05, 50e6, &warn); len(regs) != 3 {
		t.Fatalf("at 5%% tolerance got %d regressions, want 3", len(regs))
	}
}
