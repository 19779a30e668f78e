// Command bench is the repository's one performance yardstick: five
// fixed-work workloads over the simulator and the lucidd control plane, four
// end-to-end metrics each, and a traced variant that splits the time by
// layer. It measures every layer from outside, through public functions only.
// README.md in this directory explains the workloads, the metrics and the
// stability rules; BENCHMARK.json at the repository root is the gate's
// contract.
//
//	go run ./bench -seed 1                 every workload, each in a fresh process
//	go run ./bench -workload ctl_read      one workload, in this process
//	go run ./bench -trace out.jsonl        the traced variant: per-layer metrics + spans
//	go run ./bench -selfcheck -n 10        do two sets of runs agree within the bounds?
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(cfg runCfg, r *result, tr *tracer) error
}

// workloads in reporting order. The why strings are BENCHMARK.json's.
var workloads = []workload{
	{"lucid_month", "default Lucid with the weekly Update Engine: model refits are most of the run, so core, ml/gam, feat and textdist gains show here",
		simWorkload{repSeconds: 2.8, runs: lucidRuns(core.DefaultConfig())}.run},
	{"lucid_congested", "static-model Lucid at 0.95 offered load: no refits, so ordering, binder and placement over a long queue do the work",
		simWorkload{targetLoad: 0.95, repSeconds: 1.9, runs: lucidRuns(staticLucid())}.run},
	{"baseline_month", "FIFO, SJF, QSSF, Horus and Tiresias: internal/core runs nothing, so the sim engine, cluster indexes and sched show here",
		simWorkload{repSeconds: 2.6, runs: baselineRuns}.run},
	{"ctl_ingest", "lucidd write path with WAL and fsync on: decode, route, enqueue, batched apply, WAL append, coalesced fsync",
		ctlWorkload{repSeconds: 2.6, rep: ingestRep}.run},
	{"ctl_read", "lucidd reads beside writes: flush barrier, priority and agent indexes, K-way merge, encode; latency is the write ack beside them",
		ctlWorkload{repSeconds: 2.6, rep: readRep}.run},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCfg is one workload run's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  int    // nominal length of the timed section; fixes the repetition count
	traced   bool   // the traced variant: per-layer metrics, spans kept
	spanFile string // where a traced run writes its spans ("" keeps them in memory only)
	tiny     bool   // bench_test.go's scale: seconds become milliseconds
}

// reps sizes the repetition count from -seconds and one repetition's wall
// time on the reference box: always odd, so the median is a real repetition.
func (c runCfg) reps(repSeconds float64) int {
	if c.tiny {
		return 3
	}
	k := int(math.Round(float64(c.seconds) / repSeconds))
	if k < 1 {
		k = 1
	}
	if k%2 == 0 {
		k--
	}
	return k
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: all, each in a fresh process)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the timed section; fixes the repetition count")
	trace := fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; a path: traced, spans written there as JSON lines")
	tiny := fs.Bool("tiny", false, "shrink every workload to a smoke test")
	selfcheck := fs.Bool("selfcheck", false, "run two alternating sets of -n runs per workload and compare them against the bounds")
	n := fs.Int("n", 10, "runs per set for -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := runCfg{workload: *name, seed: *seed, seconds: *seconds, tiny: *tiny, traced: *trace != "0"}
	if cfg.traced && *trace != "1" {
		cfg.spanFile = *trace
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(cfg, *n, stdout, stderr)
	case cfg.workload == "":
		err = runAll(cfg, stdout, stderr)
	default:
		var r *result
		if r, err = runWorkload(cfg); err == nil {
			r.print(stdout)
			if !r.correct() {
				err = fmt.Errorf("%s: %d output checks failed", cfg.workload, r.failed)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runCfg) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	r := &result{cfg: cfg, env: newEnvBlock(cfg.seed, cfg.traced), vals: map[string]float64{}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(1 << 16)
	}
	r.set("host.calib_mops", calibMops())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := wl.run(cfg, r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	runtime.ReadMemStats(&after)
	r.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("go.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("host.calib_after_mops", calibMops())
	r.set("peak_rss_mb", peakRSSMB())
	if cfg.spanFile != "" {
		if err := tr.writeFile(cfg.spanFile, cfg.workload); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// childResult is the driver's result object as a child process printed it.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process — so peak RSS, the heap and
// every cache start cold — and parses the last line it printed. Its full
// report is copied to echo when echo is non-nil.
func runChild(cfg runCfg, echo, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.spanFile != "" {
		trace = cfg.spanFile
	} else if cfg.traced {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	if echo != nil {
		_, _ = echo.Write(out.Bytes()) // a report on a closed stdout has no reader to tell
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", cfg.workload, err)
	}
	return &res, nil
}

// runAll runs every workload, each in a fresh process, then prints one table.
// With -trace <path> the children's span files are concatenated into path.
func runAll(cfg runCfg, stdout, stderr io.Writer) error {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	spanFile := cfg.spanFile
	var spans *os.File
	if spanFile != "" {
		var err error
		if spans, err = os.Create(spanFile); err != nil {
			return err
		}
		defer spans.Close()
	}
	results := make([]*childResult, len(workloads))
	for i, w := range workloads {
		c := cfg
		c.workload = w.name
		if spanFile != "" {
			c.spanFile = spanFile + "." + w.name
		}
		res, err := runChild(c, stdout, stderr)
		if err != nil {
			return err
		}
		results[i] = res
		if spans != nil {
			part, err := os.ReadFile(c.spanFile)
			if err != nil {
				return err
			}
			if _, err := spans.Write(part); err != nil {
				return err
			}
			if err := os.Remove(c.spanFile); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-34s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %15s", w.name)
	}
	fmt.Fprintln(stdout)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %-6s", d.name, d.unit)
		for _, res := range results {
			fmt.Fprintf(stdout, " %15.6g", res.Metrics[d.name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-34s %-6s", "attempted / failed", "count")
	failed := 0
	for _, res := range results {
		fmt.Fprintf(stdout, " %15s", fmt.Sprintf("%d / %d", res.Attempted, res.Failed))
		failed += res.Failed
	}
	fmt.Fprintln(stdout)
	if spans != nil {
		if err := spans.Close(); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or output checks failed", failed)
	}
	return nil
}
