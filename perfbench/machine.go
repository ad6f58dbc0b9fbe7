package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// machineInfo fingerprints the machine and the code under test, and
// carries the drift probe taken before and after the workload.
type machineInfo struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPU         string  `json:"cpu"`
	GoVersion   string  `json:"go"`
	Commit      string  `json:"commit"`
	RefBeforeMs float64 `json:"ref_before_ms"`
	RefAfterMs  float64 `json:"ref_after_ms"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// took for other guests during the measured window.
	StealPct float64 `json:"steal_pct"`
}

func fingerprint() machineInfo {
	return machineInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a repository, else the source digest
// run.sh exports.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if d := os.Getenv("BENCH_SOURCE_DIGEST"); d != "" {
		return "src-" + d
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// refKernelMs times a fixed single-threaded standard-library kernel
// (SHA-256 over 4 MiB) and returns the fastest of five tries. It does
// not depend on the code under test, so a shift in it between runs is
// the machine drifting, not a code change.
func refKernelMs() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		start := time.Now()
		sha256.Sum256(buf)
		if d := ms(time.Since(start)); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// cpuTimes returns the steal and total jiffies of /proc/stat's "cpu"
// line (zeros where it cannot be read).
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user and nice.
	for i, f := range fields[1:9] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
