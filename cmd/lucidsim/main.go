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
// The build leaves the QSSF/Horus GBDT estimator to its first use, so the
// first of those runs over a world includes the estimator fit in its wall
// time.
//
// Snapshot / resume / time-travel (all require a single -sched, and the
// world flags — trace, scale, util, chaos — must match the original run;
// a fingerprint in the snapshot enforces it):
//
//	lucidsim -trace venus -sched lucid -snapshot-at 86400 -snapshot-out day1.snap
//	lucidsim -trace venus -sched lucid -resume day1.snap
//	lucidsim -trace venus -sched fifo -resume-at 86400 -with-scheduler sjf
//
// -snapshot-at writes the complete world state at the given simulated second
// and then finishes the run; -resume restores it into a fresh scheduler and
// continues — bit-identical to never having stopped. -resume-at forks the
// world mid-run into a different scheduler (a what-if replay) and reports
// both outcomes.
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
	resumeFrom := flag.String("resume", "", "restore a -snapshot-at world snapshot and run it to completion")
	resumeAt := flag.Int64("resume-at", 0, "time-travel fork: run the base scheduler to this simulated second, then fork into -with-scheduler")
	withSched := flag.String("with-scheduler", "", "scheduler the -resume-at fork continues with")
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

	spec, ok := trace.SpecByName(strings.ToLower(*traceName))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown trace %q\n", *traceName)
		os.Exit(2)
	}
	switch strings.ToUpper(*util) {
	case "L":
		spec.Util = trace.UtilLow
	case "H":
		spec.Util = trace.UtilHigh
	default:
		spec.Util = trace.UtilMedium
	}

	fmt.Printf("building %s world at scale %.2f (training models on a history month)...\n", spec.Name, *scale)
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

	flags := runFlags{engine: engine, invariants: *invariants, fault: faultSpec}

	// Snapshot / resume / fork modes operate on one explicit scheduler.
	if *snapshotAt > 0 || *resumeFrom != "" || *resumeAt > 0 {
		if err := runDurable(w, durableFlags{
			sched:      *schedName,
			snapshotAt: *snapshotAt,
			out:        *snapshotOut,
			resumeFrom: *resumeFrom,
			resumeAt:   *resumeAt,
			withSched:  *withSched,
			runFlags:   flags,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	want := strings.ToLower(*schedName)
	ran := false
	for _, nr := range w.Schedulers() {
		if want != "all" && strings.ToLower(nr.Name) != want {
			continue
		}
		ran = true
		flags.apply(&nr.Opts)
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
		res := w.Run(nr)
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

// durableFlags bundles the snapshot/resume/fork mode parameters.
type durableFlags struct {
	sched      string
	snapshotAt int64
	out        string
	resumeFrom string
	resumeAt   int64
	withSched  string
	runFlags
}

// runFlags are the flags every run takes, whichever mode starts it.
type runFlags struct {
	engine     sim.EngineKind
	invariants bool
	fault      chaos.Spec
}

// apply sets the flags on one run's options. Each run gets its own checker;
// every run reads the one fault spec.
func (f runFlags) apply(opts *sim.Options) {
	opts.Engine = f.engine
	if f.invariants {
		opts.Invariants = sim.NewInvariantChecker(false)
	}
	if f.fault.Enabled() {
		opts.Chaos = &f.fault
	}
}

// pickRun resolves one scheduler by name.
func pickRun(w *lab.World, name string, f durableFlags) (lab.NamedRun, error) {
	if strings.ToLower(name) == "all" || name == "" {
		return lab.NamedRun{}, fmt.Errorf("snapshot/resume modes need one explicit scheduler, not %q", name)
	}
	for _, nr := range w.Schedulers() {
		if !strings.EqualFold(nr.Name, name) {
			continue
		}
		f.apply(&nr.Opts)
		return nr, nil
	}
	return lab.NamedRun{}, fmt.Errorf("unknown scheduler %q", name)
}

// runDurable dispatches the snapshot-at / resume / time-travel-fork modes.
func runDurable(w *lab.World, f durableFlags) error {
	switch {
	case f.resumeFrom != "":
		nr, err := pickRun(w, f.sched, f)
		if err != nil {
			return err
		}
		file, err := os.Open(f.resumeFrom)
		if err != nil {
			return err
		}
		defer file.Close()
		s, err := sim.Resume(w.Eval, nr.Sched, nr.Opts, bufio.NewReader(file))
		if err != nil {
			return fmt.Errorf("resume %s: %w", f.resumeFrom, err)
		}
		fmt.Printf("resumed %s world from %s\n", nr.Name, f.resumeFrom)
		t0 := time.Now()
		res := s.Run()
		fmt.Printf("%s  (wall %.1fs)\n", res.Summary(), time.Since(t0).Seconds())
		return nil

	case f.snapshotAt > 0:
		nr, err := pickRun(w, f.sched, f)
		if err != nil {
			return err
		}
		s := sim.New(w.Eval, nr.Sched, nr.Opts)
		if done := s.RunUntil(f.snapshotAt); done {
			fmt.Printf("note: run completed before t=%d; snapshotting the finished world\n", f.snapshotAt)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			return err
		}
		if err := snap.WriteFile(snap.OS, f.out, buf.Bytes()); err != nil {
			return err
		}
		fmt.Printf("snapshot at t=%d → %s\n", f.snapshotAt, f.out)
		res := s.Run() // snapshots are read-only; finish the run as normal
		fmt.Printf("%s\n", res.Summary())
		return nil

	default: // resumeAt > 0: in-process time-travel fork
		if f.withSched == "" {
			return fmt.Errorf("-resume-at needs -with-scheduler")
		}
		base, err := pickRun(w, f.sched, f)
		if err != nil {
			return err
		}
		alt, err := pickRun(w, f.withSched, f)
		if err != nil {
			return err
		}
		s := sim.New(w.Eval, base.Sched, base.Opts)
		if done := s.RunUntil(f.resumeAt); done {
			return fmt.Errorf("base %s run completed before t=%d — nothing to fork", base.Name, f.resumeAt)
		}
		forked, err := s.Fork(alt.Sched, alt.Opts)
		if err != nil {
			return fmt.Errorf("fork into %s: %w", alt.Name, err)
		}
		fmt.Printf("forked %s world at t=%d into %s\n", base.Name, f.resumeAt, alt.Name)
		altRes := forked.Run()
		baseRes := s.Run()
		fmt.Printf("%s\n", baseRes.Summary())
		fmt.Printf("%s  (what-if from t=%d)\n", altRes.Summary(), f.resumeAt)
		return nil
	}
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
