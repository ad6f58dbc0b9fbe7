// Command perfbench is the repository's benchmark: four workloads that
// each drive one user-visible path of the SPIDER system end to end,
// check every answer against an oracle computed during set-up, and
// print their metrics by name and unit. With --trace 1 the same
// workload runs a traced variant instead and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload uniprot-csv --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"op_p50_ms": {"value": 1301.2, "unit": "ms"}, ...}}
//
// Lines before it start with "#" and carry the machine fingerprint,
// the drift probe, error_ratio and the exact counts. See README.md for
// why each workload exists and which layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them. BENCHMARK.json lists the same names and units
// (main_test.go keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"items_per_op", "count"},
	{"bytes_per_op", "B"},
}

// perLayer is what the traced run reports, per module. A workload that
// does not exercise a layer in its op reports 0 for that layer.
var perLayer = []metricDef{
	{"relstore.csv_load_ms", "ms"},
	{"relstore.stats_ms", "ms"},
	{"relstore.rows", "count"},
	{"relstore.csv_mb", "MB"},
	{"ind.collect_ms", "ms"},
	{"ind.export_ms", "ms"},
	{"extsort.sort_ms", "ms"},
	{"extsort.values_in", "count"},
	{"extsort.distinct_out", "count"},
	{"blockfile.write_mb", "MB"},
	{"blockfile.decode_ms", "ms"},
	{"blockfile.decode_mvals_per_s", "Mvals/s"},
	{"sketch.build_ms", "ms"},
	{"sketch.pretest_ms", "ms"},
	{"sketch.pruned_ratio", "ratio"},
	{"sketch.bytes", "B"},
	{"ind.candidates_ms", "ms"},
	{"ind.candidates", "count"},
	{"ind.satisfied", "count"},
	{"ind.useful_ratio", "ratio"},
	{"ind.merge_ms", "ms"},
	{"ind.merge_mem_ms", "ms"},
	{"ind.items_read", "count"},
	{"ind.comparisons", "count"},
	{"ind.max_open_files", "count"},
	{"nary.level1_ms", "ms"},
	{"nary.level2_ms", "ms"},
	{"nary.level3_ms", "ms"},
	{"nary.level4_ms", "ms"},
	{"nary.level2_items", "count"},
	{"nary.level3_items", "count"},
	{"nary.level4_items", "count"},
	{"nary.level2_candidates", "count"},
	{"nary.level3_candidates", "count"},
	{"nary.level4_candidates", "count"},
	{"nary.tuple_mb", "MB"},
	{"spider.persist_ms", "ms"},
	{"spider.resultset_kb", "KB"},
	{"store.stage_ms", "ms"},
	{"store.snapshot_mb", "MB"},
	{"serve.member.handler_p50_us", "us"},
	{"serve.containment.handler_p50_us", "us"},
	{"serve.inds.handler_p50_us", "us"},
	{"serve.verify.handler_p50_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.member_bloom_ratio", "ratio"},
	{"serve.verify_engine_p50_us", "us"},
	{"serve.verify_items", "count"},
	{"go.gc_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"machine.ref_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans_per_op", "count"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs: a smoke test of the metric plumbing, not a measurement")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for scratch data and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seed == 0 {
		// Seed 0 selects the generators' built-in default; refuse it so
		// that every seed names distinct inputs.
		fmt.Fprintln(stderr, "perfbench: --seed must be non-zero")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	setup, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), "|"))
		return 2
	}
	out, err := runWorkload(cfg, setup)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	writeReport(stdout, cfg, out)
	if !out.correct() {
		return 1
	}
	return 0
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeReport prints the human-readable lines, then the result line.
func writeReport(w io.Writer, cfg config, out *outcome) {
	fp, _ := json.Marshal(out.machine)
	fmt.Fprintf(w, "# machine %s\n", fp)
	fmt.Fprintf(w, "# workload %s seed %d trace %v: %d ops attempted, %d failed, error_ratio %g (ratio)\n",
		cfg.workload, cfg.seed, cfg.trace, out.attempted, out.failed, out.errorRatio())
	if !cfg.trace {
		// Recorded, not gated: on a shared 2-vCPU machine the tail, and
		// with it the throughput of the serving workloads, moves with the
		// hypervisor's steal time by more than any usable bound.
		fmt.Fprintf(w, "# op_p99_ms %.6g ms (nearest rank over %d ops)\n", out.metrics["op_p99_ms"], out.attempted)
		fmt.Fprintf(w, "# ops_per_s %.6g 1/s (median of per-round rates)\n", out.metrics["ops_per_s"])
	}
	if out.clientMallocs > 0 {
		fmt.Fprintf(w, "# client baseline subtracted per op: %.6g MB, %.6g allocs\n", out.clientBytes/1e6, out.clientMallocs)
	}
	for _, msg := range out.failures {
		fmt.Fprintf(w, "# FAILED %s\n", msg)
	}
	if len(out.latencies) > 0 {
		fmt.Fprintf(w, "# op latencies (all, or deciles) ms: %.4g\n", out.latencies)
	}
	names := make([]string, 0, len(out.exact))
	for name := range out.exact {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# exact per round of inputs: %s = %d\n", name, out.exact[name])
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := out.metrics[d.Name]
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}
