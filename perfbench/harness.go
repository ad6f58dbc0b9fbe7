package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupFunc prepares one instance of a workload: its inputs, the
// oracle and whatever the ops run against.
type setupFunc func(env *env) (instance, error)

var workloads = map[string]setupFunc{
	"uniprot-csv": setupUniProtCSV,
	"scop-nary":   setupSCOPNary,
	"serve-probe": setupServeProbe,
	"pdb-verify":  setupPDBVerify,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median. A tiny run sets up once.
func setupReps(tiny bool) int {
	if tiny {
		return 1
	}
	return 3
}

// env is what a set-up gets: the seed, the size mode and a private
// scratch directory that the harness removes after the run.
type env struct {
	seed int64
	tiny bool
	dir  string
	// resetTime is the time spent in resetPeak, which setup_s leaves out.
	resetTime time.Duration
}

// resetPeak is called by a set-up once its inputs and oracle are built
// and before the program under test stages anything. It frees what the
// benchmark's own set-up left behind and restarts the resident-set
// high-water mark, so that peak_rss_mb covers the program's staging and
// ops, not the generator or the oracle.
func (e *env) resetPeak() error {
	start := time.Now()
	defer func() { e.resetTime += time.Since(start) }()
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// mkdir returns a new empty directory under the scratch directory.
func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix)
}

// instance is one set-up workload. Ops are numbered from 0; op i runs
// the input at position i mod roundLen, so a run that executes whole
// rounds does the same work per op on every run of a seed.
type instance interface {
	roundLen() int
	// op runs op i and checks its answer. tr is nil for the untraced
	// op; a traced op records its spans in tr and returns the layer
	// values it measured.
	op(i int, tr *tracer) opResult
	close() error
}

// clientCoster is an instance whose ops include in-process client work
// that is not the program's: clientCost returns its allocated bytes and
// allocations per op, which measure subtracts.
type clientCoster interface {
	clientCost() (bytes, mallocs float64, err error)
}

// layerReporter is an instance with per-layer values that belong to
// the whole traced window rather than to one op.
type layerReporter interface {
	layerTotals() (map[string]float64, error)
}

// opResult is what one op reports.
type opResult struct {
	latency time.Duration
	items   int64
	bytes   int64
	// exact holds counts that must repeat exactly wherever the same
	// input runs again, across set-ups too.
	exact []count
	// layers holds a traced op's per-layer values.
	layers map[string]float64
	err    error
}

type count struct {
	name string
	v    int64
}

// outcome is one run's results.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	exact     map[string]int64
	machine   machineInfo
	// clientBytes and clientMallocs are the per-op client baseline
	// subtracted from alloc_mb_per_op and allocs_per_op.
	clientBytes, clientMallocs float64
	// latencies lists every op's latency in ms when there are few, else
	// the deciles.
	latencies []float64
}

func (o *outcome) correct() bool { return o.failed == 0 }

func (o *outcome) errorRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// fail records a failed op; only the first few messages are kept.
func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, msg)
	}
}

// guard holds the first value seen for each exact count per round
// position and reports any later difference by the counter's name.
type guard struct {
	first map[int][]count
}

func (g *guard) check(pos int, got []count) error {
	if g.first == nil {
		g.first = make(map[int][]count)
	}
	want, ok := g.first[pos]
	if !ok {
		g.first[pos] = got
		return nil
	}
	if len(want) != len(got) {
		return fmt.Errorf("exact counts at input %d: got %d counters, first run had %d", pos, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("exact count %s at input %d changed: %d, first seen %d", got[i].name, pos, got[i].v, want[i].v)
		}
	}
	return nil
}

// roundTotals sums each exact count over one round of inputs.
func (g *guard) roundTotals() map[string]int64 {
	tot := make(map[string]int64)
	for _, cs := range g.first {
		for _, c := range cs {
			tot[c.name] += c.v
		}
	}
	return tot
}

// runWorkload sets the workload up setupReps times (setup_s is the
// median), then measures whole rounds of ops for cfg.seconds.
func runWorkload(cfg config, setup setupFunc) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	out.machine = fingerprint()
	refBefore := refKernelMs()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var g guard
	var inst instance
	var instDir string
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		err := inst.close()
		inst = nil
		if rerr := os.RemoveAll(instDir); err == nil {
			err = rerr
		}
		return err
	}
	defer closeInst()
	var setups []float64
	for rep := 0; rep < setupReps(cfg.tiny); rep++ {
		if err := closeInst(); err != nil {
			return nil, err
		}
		runtime.GC()
		instDir, err = os.MkdirTemp(scratch, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		e := &env{seed: cfg.seed, tiny: cfg.tiny, dir: instDir}
		inst, err = setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Warm-up: one whole round, checked like any other op. It also
		// records the exact counts every later op must repeat.
		for i := 0; i < inst.roundLen(); i++ {
			r := inst.op(i, nil)
			if r.err == nil {
				r.err = g.check(i, r.exact)
			}
			if r.err != nil {
				return nil, fmt.Errorf("warm-up op %d: %w", i, r.err)
			}
		}
		setups = append(setups, (time.Since(start) - e.resetTime).Seconds())
	}
	if cc, ok := inst.(clientCoster); ok && !cfg.trace {
		if out.clientBytes, out.clientMallocs, err = cc.clientCost(); err != nil {
			return nil, fmt.Errorf("client baseline: %w", err)
		}
	}
	runtime.GC()

	steal0, total0 := cpuTimes()
	if cfg.trace {
		if err := measureTraced(cfg, inst, &g, out); err != nil {
			return nil, err
		}
	} else {
		measure(cfg, inst, &g, out)
		out.metrics["alloc_mb_per_op"] -= out.clientBytes / 1e6
		out.metrics["allocs_per_op"] -= out.clientMallocs
	}
	if steal1, total1 := cpuTimes(); total1 > total0 {
		out.machine.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	out.exact = g.roundTotals()
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	refAfter := refKernelMs()
	out.machine.RefBeforeMs, out.machine.RefAfterMs = refBefore, refAfter
	out.metrics["machine.ref_ms"] = (refBefore + refAfter) / 2
	return out, closeInst()
}

// measure runs untraced ops in whole rounds until cfg.seconds have
// passed and fills the end-to-end metrics.
func measure(cfg config, inst instance, g *guard, out *outcome) {
	round := inst.roundLen()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	var lat, roundRates []float64
	var items, bytes int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	roundStart := start
	for i := 0; i == 0 || i%round != 0 || time.Since(start) < limit; i++ {
		r := inst.op(i, nil)
		out.attempted++
		if r.err == nil {
			r.err = g.check(i%round, r.exact)
		}
		if r.err != nil {
			out.fail(fmt.Sprintf("op %d: %v", i, r.err))
		}
		lat = append(lat, ms(r.latency))
		items += r.items
		bytes += r.bytes
		if (i+1)%round == 0 {
			now := time.Now()
			roundRates = append(roundRates, float64(round)/now.Sub(roundStart).Seconds())
			roundStart = now
		}
	}
	runtime.ReadMemStats(&m1)
	if len(lat) <= 64 {
		out.latencies = lat
	} else {
		for q := 0.1; q < 0.95; q += 0.1 {
			out.latencies = append(out.latencies, quantile(lat, q))
		}
	}
	n := float64(len(lat))
	// op_p50_ms is the median over the round's inputs of each input's
	// median latency. Inputs differ in cost, so when the hypervisor
	// preempts a share of the ops the pooled median moves to a costlier
	// input; each input's own median hardly moves. A batch round is one
	// input, so there it is the plain median.
	byInput := make([][]float64, round)
	for i, l := range lat {
		byInput[i%round] = append(byInput[i%round], l)
	}
	medians := make([]float64, round)
	for pos, ls := range byInput {
		medians[pos] = median(ls)
	}
	out.metrics["op_p50_ms"] = median(medians)
	out.metrics["op_p99_ms"] = quantile(lat, 0.99)
	// Rounds replay the same inputs, so per-round rates are comparable;
	// their median ignores a round that a transient machine stall hit.
	out.metrics["ops_per_s"] = median(roundRates)
	out.metrics["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	out.metrics["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	out.metrics["items_per_op"] = float64(items) / n
	out.metrics["bytes_per_op"] = float64(bytes) / n
}

// measureTraced alternates untraced and traced ops in whole rounds for
// cfg.seconds, then reports the median of every layer value over the
// traced ops, the tracing overhead, and writes the spans to a file.
func measureTraced(cfg config, inst instance, g *guard, out *outcome) error {
	round := inst.roundLen()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	tr := newTracer()
	var plain, traced []float64
	layers := make(map[string][]float64)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// At least one traced op runs, whatever the time limit.
	for i := 0; i < 2 || i%round != 0 || time.Since(start) < limit; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
			tr.op = i
		}
		r := inst.op(i, t)
		out.attempted++
		if r.err == nil {
			r.err = g.check(i%round, r.exact)
		}
		if r.err != nil {
			out.fail(fmt.Sprintf("op %d (traced %v): %v", i, t != nil, r.err))
			continue
		}
		if t == nil {
			plain = append(plain, ms(r.latency))
			continue
		}
		traced = append(traced, ms(r.latency))
		for k, v := range r.layers {
			layers[k] = append(layers[k], v)
		}
	}
	runtime.ReadMemStats(&m1)
	for k, vs := range layers {
		out.metrics[k] = median(vs)
	}
	if lr, ok := inst.(layerReporter); ok {
		totals, err := lr.layerTotals()
		if err != nil {
			return err
		}
		for k, v := range totals {
			out.metrics[k] = v
		}
	}
	ops := float64(out.attempted)
	out.metrics["go.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	out.metrics["go.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	out.metrics["trace.untraced_p50_ms"] = quantile(plain, 0.5)
	out.metrics["trace.traced_p50_ms"] = quantile(traced, 0.5)
	out.metrics["trace.overhead_ms"] = quantile(traced, 0.5) - quantile(plain, 0.5)
	if len(traced) > 0 {
		out.metrics["trace.spans_per_op"] = float64(len(tr.spans)) / float64(len(traced))
	}
	path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	return tr.writeFile(path)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of vs (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of vs, averaging the middle pair.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
