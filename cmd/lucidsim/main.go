// Command lucidsim runs one (trace, scheduler) simulation and prints the
// aggregate metrics — the quick way to poke at the system.
//
// Usage:
//
//	lucidsim -trace venus -sched lucid -scale 0.2
//	lucidsim -trace philly -sched all
//	lucidsim -trace venus -sched lucid -decision-trace out.jsonl -invariants
//	lucidsim -trace venus -sched fifo -chaos "nodefail=0.5,jobcrash=1,retries=3"
//	lucidsim -trace venus -sched all -engine tick
//	lucidsim -summarize out.jsonl
//
// -engine selects the advancement strategy: "event" (the default) jumps
// between wake-up events; "tick" executes every fixed tick and is the
// reference the event engine reproduces bit for bit, orders of magnitude
// slower on large worlds.
//
// -chaos arms deterministic fault injection (node crashes, GPU faults, job
// crashes, stragglers) from a comma-separated key=value spec; "default"
// selects Hu et al.-calibrated rates and "off" disables every fault. The
// schedule is a pure function of the spec, so -sched all replays the
// identical fault schedule against every scheduler.
//
// With -decision-trace, every scheduling decision is streamed as JSONL to
// the given path (one file per scheduler when -sched all; the scheduler
// name is inserted before the extension) and a trace summary with the
// deterministic digest is printed. -summarize replays a previously written
// trace and prints the same summary without running a simulation.
//
// With -metrics-out, each run records engine metrics (tick phase timings,
// scheduler decision latency, queue depth) and dumps them in Prometheus text
// format (again one file per scheduler when -sched all), beside the world
// build's wall time (lucidsim_world_build_seconds, also printed after the
// build). A Lucid run adds its Update Engine's refit stage timings and
// refit counts, and prints them. Metrics never influence the run: digests
// are identical with or without them.
//
// The build emits the world's two trace months and fits no model: Lucid's
// models are fit at the first Lucid round and the QSSF/Horus GBDT estimator
// at its first estimate, so the first run of each over a world includes
// that fit in its wall time.
//
// Snapshot and resume are steps of the same run, so every other flag —
// -decision-trace, -metrics-out, -invariants, -chaos, -engine — works with
// them. Both need a single -sched, and the world flags (trace, scale, util,
// chaos) must match the original run; a fingerprint in the snapshot
// enforces it:
//
//	lucidsim -trace venus -sched lucid -snapshot-at 86400 -snapshot-out day1.snap
//	lucidsim -trace venus -sched lucid -resume day1.snap
//	lucidsim -trace venus -sched sjf -resume day1.snap
//
// -snapshot-at writes the complete world state at the first tick at or after
// the given simulated second, prints that time, and then finishes the run;
// -resume starts the run from such a snapshot instead of t = 0. Resumed under the same -sched it is bit-identical to
// never having stopped (with -decision-trace on both runs, the same digest);
// under a different -sched it is a what-if fork: the new scheduler starts
// with fresh policy state over the restored world.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
)

func main() {
	traceName := flag.String("trace", "venus", "trace: venus | saturn | philly")
	schedName := flag.String("sched", "all", "scheduler: fifo | sjf | qssf | horus | tiresias | lucid | all")
	scale := flag.Float64("scale", 0.2, "fraction of the Table 2 job count to replay (0 < s ≤ 1)")
	util := flag.String("util", "M", "workload utilization mix: L | M | H (Figure 12a)")
	decisionTrace := flag.String("decision-trace", "", "write a JSONL decision trace to this path and print its summary")
	invariants := flag.Bool("invariants", false, "check engine invariants on every executed tick and report violations")
	summarize := flag.String("summarize", "", "summarize an existing JSONL decision trace and exit")
	metricsOut := flag.String("metrics-out", "", "write each run's engine metrics (tick phase timings, scheduler decision latency) to this path in Prometheus text format")
	chaosSpec := flag.String("chaos", "", `fault-injection spec, e.g. "nodefail=0.5,jobcrash=1" ("default" | "off" | key=value,...)`)
	snapshotAt := flag.Int64("snapshot-at", 0, "run the selected scheduler to this simulated second, write a world snapshot, then finish the run")
	snapshotOut := flag.String("snapshot-out", "world.snap", "snapshot path written by -snapshot-at")
	resumeFrom := flag.String("resume", "", "start the run from a -snapshot-at world snapshot instead of t = 0 (a different -sched forks a what-if)")
	engineName := flag.String("engine", "event", "advancement engine: event (discrete-event) | tick (every fixed tick; the bit-identical reference)")
	flag.Parse()

	engine, err := sim.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var faultSpec chaos.Spec
	if *chaosSpec != "" {
		faultSpec, err = chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -chaos spec: %v\n", err)
			os.Exit(2)
		}
	}

	if *summarize != "" {
		if err := summarizeFile(*summarize); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	want := strings.ToLower(*schedName)
	if want == "all" && (*snapshotAt > 0 || *resumeFrom != "") {
		fmt.Fprintln(os.Stderr, "snapshot/resume need one explicit scheduler, not \"all\"")
		os.Exit(1)
	}

	spec, ok := trace.SpecByName(strings.ToLower(*traceName))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown trace %q\n", *traceName)
		os.Exit(2)
	}
	switch strings.ToUpper(*util) {
	case "L":
		spec.Util = trace.UtilLow
	case "M":
		spec.Util = trace.UtilMedium
	case "H":
		spec.Util = trace.UtilHigh
	default:
		fmt.Fprintf(os.Stderr, "unknown -util %q (want L, M or H)\n", *util)
		os.Exit(2)
	}
	if err := lab.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("building %s world at scale %.2f (history and evaluation months)...\n", spec.Name, *scale)
	buildStart := time.Now()
	w, err := lab.BuildWorld(spec, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buildSec := time.Since(buildStart).Seconds()
	fmt.Printf("world built in %.2fs\n", buildSec)
	fmt.Printf("evaluation month: %d jobs on %d GPUs across %d VCs\n\n",
		len(w.Eval.Jobs), w.Eval.Cluster.TotalGPUs(), len(w.Eval.Cluster.VCs))
	if *chaosSpec != "" {
		if faultSpec.Enabled() {
			fmt.Printf("chaos armed: %s\n\n", faultSpec.String())
		} else {
			fmt.Print("chaos spec disables every fault — running clean\n\n")
		}
	}

	ran := false
	for _, nr := range w.Schedulers() {
		if want != "all" && strings.ToLower(nr.Name) != want {
			continue
		}
		ran = true
		nr.Opts.Engine = engine
		if *invariants {
			nr.Opts.Invariants = sim.NewInvariantChecker(false)
		}
		if faultSpec.Enabled() {
			nr.Opts.Chaos = &faultSpec
		}
		var rec *dtrace.Recorder
		var closeTrace func() error
		if *decisionTrace != "" {
			rec = dtrace.New()
			rec.SetKeep(0) // summary counters only; the sink holds the trace
			path := tracePath(*decisionTrace, nr.Name, want == "all")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			bw := bufio.NewWriter(f)
			rec.SetSink(bw)
			closeTrace = func() error {
				if err := bw.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			nr.Opts.DecisionTrace = rec
			fmt.Printf("decision trace → %s\n", path)
		}
		var reg *metrics.Registry
		if *metricsOut != "" {
			reg = metrics.New()
			reg.Gauge("lucidsim_world_build_seconds", "Wall seconds to build the world this run replays.").
				Set(buildSec)
			nr.Opts.Metrics = reg
		}
		t0 := time.Now()
		res, err := run(w, nr, *resumeFrom, *snapshotAt, *snapshotOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s  (wall %.1fs)\n", res.Summary(), time.Since(t0).Seconds())
		if reg != nil {
			path := tracePath(*metricsOut, nr.Name, want == "all")
			text := reg.Render()
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("engine metrics → %s\n", path)
			if strings.Contains(text, "lucid_refits_total") {
				fmt.Println(core.UpdateEngineSummary(reg))
			}
		}
		if res.Violations > 0 {
			for _, v := range res.ViolationSamples {
				fmt.Printf("  violation: %s\n", v)
			}
		}
		if rec != nil {
			if err := closeTrace(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := rec.SinkErr(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(rec.Summary().String())
			fmt.Println()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *schedName)
		os.Exit(2)
	}
}

// run simulates one scheduler from t = 0, or from the world snapshot at
// resume, and returns its result. With snapshotAt > 0 it stops at that
// simulated second, writes the world to out, and then finishes the run.
func run(w *lab.World, nr lab.NamedRun, resume string, snapshotAt int64, out string) (*sim.Result, error) {
	var s *sim.Sim
	if resume == "" {
		s = sim.New(w.Eval, nr.Sched, nr.Opts)
	} else {
		f, err := os.Open(resume)
		if err != nil {
			return nil, err
		}
		s, err = sim.Resume(w.Eval, nr.Sched, nr.Opts, bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("resume %s: %w", resume, err)
		}
		fmt.Printf("resumed %s world from %s\n", nr.Name, resume)
	}
	if snapshotAt > 0 {
		if done := s.RunUntil(snapshotAt); done {
			fmt.Printf("note: run completed before t=%d; snapshotting the finished world\n", snapshotAt)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			return nil, err
		}
		if err := snap.WriteFile(snap.OS, out, buf.Bytes()); err != nil {
			return nil, err
		}
		fmt.Printf("snapshot at t=%d → %s\n", s.Now(), out)
	}
	return s.Run(), nil
}

// tracePath inserts the scheduler name before the extension when several
// schedulers share one -decision-trace flag.
func tracePath(base, sched string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + strings.ToLower(sched) + ext
}

// summarizeFile replays a JSONL decision trace and prints its summary.
func summarizeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := dtrace.ReadJSONL(bufio.NewReader(f))
	if err != nil {
		return err
	}
	fmt.Print(dtrace.SummarizeEvents(events).String())
	return nil
}
