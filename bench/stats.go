package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is an exact latency sample set: every observation is kept, in
// nanoseconds, in a buffer sized before the timed section. Percentiles are
// nearest-rank on the sorted values, the rule sim.Percentile uses — never a
// bucketed histogram, whose ×1.35 grain is coarser than the bounds this
// benchmark gates on.
type samples struct {
	ns     []int64
	sorted bool
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int64, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

func (s *samples) count() int { return len(s.ns) }

// sum returns the total of all samples in seconds.
func (s *samples) sum() float64 {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return float64(t) / 1e9
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) in nanoseconds: the smallest
// sample with at least p·n of the set at or below it. 0 for an empty set.
func (s *samples) percentile(p float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.ns, func(a, b int) bool { return s.ns[a] < s.ns[b] })
		s.sorted = true
	}
	return float64(s.ns[nearestRank(len(s.ns), p)])
}

// nearestRank is the 0-based index of the p-quantile among n sorted values.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}

// median returns the middle value, the mean of the two middle values for an
// even count. 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// returns (the "exclusive" method) — the spread the benchmark contract is
// judged by.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// calibMops times a fixed splitmix64 loop and returns million operations per
// second. It runs before and after every workload so host drift — a noisy
// neighbour on a shared VM — is visible beside a number that moved.
func calibMops() float64 {
	const n = 20_000_000
	x := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < n; i++ {
		x = splitmix64(x)
	}
	el := time.Since(start).Seconds()
	calibSink = x
	return n / el / 1e6
}

// calibSink keeps the calibration loop's result live so the compiler cannot
// drop the loop.
var calibSink uint64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB; 0
// where /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // the kernel writes a plain integer
			return kb / 1024
		}
	}
	return 0
}

// envBlock records where and how a result was produced.
type envBlock struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Kernel     string         `json:"kernel"`
	Seed       uint64         `json:"seed"`
	Reps       int            `json:"k"`
	Traced     bool           `json:"traced"`
	OpCounts   map[string]int `json:"op_counts"`
}

func newEnvBlock(seed uint64, traced bool) envBlock {
	return envBlock{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		Seed:       seed,
		Traced:     traced,
		OpCounts:   map[string]int{},
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// repository (the driver's checkout is a plain directory).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// parseProm reads Prometheus text exposition into series → value, keyed by
// the sample name with its label set exactly as rendered
// (`sim_phase_seconds_sum{phase="advance"}`). The benchmark reads the
// program's own instruments this way — from a registry's Render for the
// simulator, from GET /metrics for lucidd — so it sees what an operator sees.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
