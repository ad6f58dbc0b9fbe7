package main

// The -json mode turns `go test -bench` output into a machine-readable
// trajectory file (BENCH_ci.json) and gates CI on it: compared against a
// committed baseline JSON, any benchmark slower by more than the
// tolerance fails the run. Tiny benchmarks sit below a noise floor and
// are never compared — with -benchtime 1x a sub-millisecond measurement
// is mostly scheduler noise.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchFile is the persisted benchmark trajectory.
type BenchFile struct {
	// Schema identifies the format for future readers.
	Schema string `json:"schema"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// Benchmarks maps benchmark name (without the "Benchmark" prefix
	// and -GOMAXPROCS suffix) to its measurement.
	Benchmarks map[string]BenchEntry `json:"benchmarks"`
}

// BenchEntry is one benchmark's measurement.
type BenchEntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	Runs    int64   `json:"runs"`
	// Metrics holds the benchmark's custom b.ReportMetric values by unit
	// (e.g. "items/op") plus the standard B/op and
	// allocs/op when present. Informational: regression gating compares
	// ns_per_op only, but the trajectory file preserves work counters for
	// inspection.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchSchema versions the JSON format.
const benchSchema = "spider-bench/v1"

// benchLine matches standard `go test -bench` result lines, e.g.
//
//	BenchmarkTable2_UniProt_BruteForce-8   1   123456 ns/op   22.00 INDs
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// metricPair matches the trailing "value unit" metric pairs after ns/op,
// e.g. "22.00 INDs", "1.18 skew-max/mean", "1234 B/op".
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?) (\S+)`)

// parseBench reads `go test -bench` output into a BenchFile. Sub-benchmarks
// run under the same top-level name keep their full slash path.
func parseBench(r io.Reader) (*BenchFile, error) {
	out := &BenchFile{Schema: benchSchema, Go: runtime.Version(), Benchmarks: map[string]BenchEntry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		runs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad run count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		entry := BenchEntry{NsPerOp: ns, Runs: runs}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			if entry.Metrics == nil {
				entry.Metrics = map[string]float64{}
			}
			entry.Metrics[pair[2]] = v
		}
		out.Benchmarks[name] = entry
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// regression is one benchmark slower than the baseline allows.
type regression struct {
	name          string
	base, current float64
	ratio         float64
}

// compareBench returns the regressions of current vs base: benchmarks
// above the noise floor on both sides whose time grew by more than
// tolerance (0.25 = 25%). Benchmarks present on only one side are
// reported to warn (renames must update the baseline) but never fail.
func compareBench(base, current *BenchFile, tolerance, floorNs float64, warn io.Writer) []regression {
	var regs []regression
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := current.Benchmarks[name]
		if !ok {
			fmt.Fprintf(warn, "warning: benchmark %s in baseline but not in this run\n", name)
			continue
		}
		if b.NsPerOp < floorNs && c.NsPerOp < floorNs {
			// Below the noise floor on both sides: not comparable at
			// -benchtime 1x. A current value above the floor is always
			// compared — a benchmark whose baseline was fast must not be
			// able to regress past the floor unnoticed.
			continue
		}
		if c.NsPerOp > b.NsPerOp*(1+tolerance) {
			regs = append(regs, regression{name: name, base: b.NsPerOp, current: c.NsPerOp, ratio: c.NsPerOp / b.NsPerOp})
		}
	}
	for name := range current.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(warn, "note: new benchmark %s not in baseline\n", name)
		}
	}
	return regs
}

// runBenchJSON implements the -json mode; it returns the process exit
// code.
func runBenchJSON(inPath, outPath, baselinePath string, tolerance, floorMs float64) int {
	in := io.Reader(os.Stdin)
	if inPath != "" && inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "indbench: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indbench: parse: %v\n", err)
		return 1
	}
	if outPath != "" {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "indbench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "indbench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", outPath, len(current.Benchmarks))
	}
	if baselinePath == "" {
		return 0
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indbench: baseline: %v\n", err)
		return 1
	}
	var base BenchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "indbench: baseline: %v\n", err)
		return 1
	}
	if base.Schema != benchSchema {
		fmt.Fprintf(os.Stderr, "indbench: baseline schema %q, want %q\n", base.Schema, benchSchema)
		return 1
	}
	regs := compareBench(&base, current, tolerance, floorMs*1e6, os.Stdout)
	if len(regs) == 0 {
		fmt.Printf("no regressions vs %s (tolerance %.0f%%, floor %.0fms)\n",
			baselinePath, tolerance*100, floorMs)
		return 0
	}
	fmt.Fprintf(os.Stderr, "%d benchmark regression(s) vs %s (tolerance %.0f%%):\n",
		len(regs), baselinePath, tolerance*100)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %-60s %8.1fms -> %8.1fms  (%.2fx)\n",
			r.name, r.base/1e6, r.current/1e6, r.ratio)
	}
	return 1
}
