package lab

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// -update-golden rewrites testdata/golden_digests.txt from the current run.
// Use it after an intentional engine or policy change, and inspect the diff:
// a digest change means the decision sequence changed.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current run")

const goldenFile = "testdata/golden_digests.txt"

// goldenSpec is a deliberately small Venus-shaped workload: big enough to
// exercise queueing, packing and profiling, small enough that ten full
// simulations (five schedulers × two runs) stay fast.
func goldenSpec() trace.GenSpec {
	spec := trace.Venus()
	spec.Name = "golden"
	spec.Nodes = 8
	spec.NumVCs = 2
	spec.NumJobs = 600
	spec.AvgDuration = 3000
	spec.Days = 3
	return spec
}

// goldenWorld trains the Lucid models once for the whole test binary
// (training is the slow part; the models are read-only during scheduling).
var goldenOnce struct {
	sync.Once
	eval   *trace.Trace
	models *core.Models
	est    *GBDTEstimator // Horus's duration model, trained on the same history
	err    error
}

func goldenWorld(t *testing.T) (*trace.Trace, *core.Models, *GBDTEstimator) {
	t.Helper()
	goldenOnce.Do(func() {
		spec := goldenSpec()
		g := trace.NewGenerator(spec)
		hist := g.Emit(600)
		goldenOnce.eval = g.Emit(450)
		goldenOnce.models, goldenOnce.err = core.TrainModels(hist, core.DefaultConfig())
		if goldenOnce.err == nil {
			goldenOnce.est, goldenOnce.err = NewGBDTEstimator(hist)
		}
	})
	if goldenOnce.err != nil {
		t.Fatal(goldenOnce.err)
	}
	return goldenOnce.eval, goldenOnce.models, goldenOnce.est
}

// goldenSchedulers returns constructors (not instances: schedulers carry
// state across a run, so every run needs a fresh one) for the golden set.
// QSSF uses the oracle estimator so the golden digest depends only on
// engine+policy code, not on GBDT training; Horus, the one exception, runs
// as lab.World runs it.
func goldenSchedulers(models *core.Models, est *GBDTEstimator) []struct {
	name string
	mk   func() (sim.Scheduler, sim.Options)
} {
	spec := goldenSpec()
	type golden = struct {
		name string
		mk   func() (sim.Scheduler, sim.Options)
	}
	gs := []golden{
		{"FIFO", func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), SimOpts() }},
		{"SJF", func() (sim.Scheduler, sim.Options) { return sched.NewSJF(), SimOpts() }},
		{"QSSF", func() (sim.Scheduler, sim.Options) { return sched.NewQSSF(sched.OracleEstimator{}), SimOpts() }},
		{"Tiresias", func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), SimOpts() }},
		// Clone: each run must start from pristine model state, or the Update
		// Engine's refits and the forecaster's observations leak across runs.
		{"Lucid", func() (sim.Scheduler, sim.Options) {
			return core.New(models.Clone(), core.DefaultConfig()), LucidOpts(spec)
		}},
		// Chaos scenario: FIFO under a heavy deterministic fault schedule.
		// Pins the whole fault→kill→requeue→recover pipeline to a golden
		// digest.
		{"FIFO-chaos", func() (sim.Scheduler, sim.Options) {
			opts := SimOpts()
			opts.Chaos = goldenChaos()
			return sched.NewFIFO(), opts
		}},
		// Horus as lab.World runs it (GBDT estimator, the world's seed). It
		// holds an Env.Running() slice across its own placements, so its
		// digest is what notices a view that changes under the caller.
		{"Horus", func() (sim.Scheduler, sim.Options) {
			return sched.NewHorus(est, spec.Seed), SimOpts()
		}},
		// Pollux is the only policy that starts and resizes jobs elastically,
		// so its digest — and the invariant checker's from-scratch speeds
		// under it — is what notices an elastic allocation the engine's
		// per-placement record got wrong.
		{"Pollux", func() (sim.Scheduler, sim.Options) { return sched.NewPollux(), SimOpts() }},
		// Lucid under FIFO-chaos's faults: killed jobs come back Queued
		// behind a backoff, so this digest is what notices a requeued job
		// Lucid fails to take back into its queue.
		{"Lucid-chaos", func() (sim.Scheduler, sim.Options) {
			opts := LucidOpts(spec)
			opts.Chaos = goldenChaos()
			return core.New(models.Clone(), core.DefaultConfig()), opts
		}},
		// Lucid with a 12 h Update Engine: the golden days are too few for
		// the weekly default, so this digest is the one that notices a change
		// to how the estimator refits.
		{"Lucid-refit", func() (sim.Scheduler, sim.Options) {
			return core.New(models.Clone(), refitConfig()), LucidOpts(spec)
		}},
		// Tiresias under FIFO-chaos's faults: node failures and repairs move
		// the VC free index, backoff hides a VC's only waiting jobs so that
		// Env.Queues skips the VC, and the round preempts. This digest is
		// what notices a running job grouped under the wrong VC or a VC's
		// capacity read wrong.
		{"Tiresias-chaos", func() (sim.Scheduler, sim.Options) {
			opts := SimOpts()
			opts.Chaos = goldenChaos()
			return sched.NewTiresias(), opts
		}},
	}
	// Lucid under each Figure 11 / §4.5 ablation switch: these digests are
	// what notice a switch that no longer reaches the component it turns off.
	for _, ab := range []struct {
		suffix string
		set    func(*core.Config)
	}{
		{"nosharing", func(c *core.Config) { c.DisableSharing = true }},
		{"nobinder", func(c *core.Config) { c.DisableBinder = true }},
		{"noestimator", func(c *core.Config) { c.DisableEstimator = true }},
		{"nospaceaware", func(c *core.Config) { c.DisableSpaceAware = true }},
		{"notimeaware", func(c *core.Config) { c.DisableTimeAware = true }},
	} {
		gs = append(gs, golden{"Lucid-" + ab.suffix, func() (sim.Scheduler, sim.Options) {
			cfg := core.DefaultConfig()
			ab.set(&cfg)
			return core.New(models.Clone(), cfg), LucidOpts(spec)
		}})
	}
	return gs
}

// refitConfig is the default Lucid configuration with a 12 h refit interval:
// several Update Engine refits inside the golden world's 3 days.
func refitConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.UpdateIntervalSec = 43200
	return cfg
}

// goldenChaos is the heavy deterministic fault schedule of the chaos lines.
func goldenChaos() *chaos.Spec {
	cs := chaos.DefaultSpec()
	cs.NodeFailPerDay = 4
	cs.GPUFailPerDay = 0.5
	cs.JobCrashPerDay = 6
	cs.MaxRetries = 3
	cs.BackoffSec = 120
	return &cs
}

// runTraced executes one traced, invariant-checked simulation and returns
// the trace digest plus the metric summary line.
func runTraced(t *testing.T, eval *trace.Trace, name string,
	mk func() (sim.Scheduler, sim.Options)) (digest, summary string, events int64) {
	t.Helper()
	s, opts := mk()
	rec := dtrace.New()
	rec.SetKeep(0) // digest + counters only; the events themselves can be large
	opts.DecisionTrace = rec
	opts.Invariants = sim.NewInvariantChecker(true) // panic on any violation
	res := sim.New(eval, s, opts).Run()
	if res.Violations > 0 {
		t.Fatalf("%s: %d invariant violations: %v", name, res.Violations, res.ViolationSamples)
	}
	sum := rec.Summary()
	if sum.Total == 0 {
		t.Fatalf("%s: empty decision trace", name)
	}
	return rec.Digest(), res.Summary(), sum.Total
}

// TestGoldenTraceDeterminism runs every scheduler twice over the same
// trace and demands byte-identical decision traces (same FNV digest over
// the canonical JSONL stream) and identical aggregate metrics, then checks
// the digests against the committed golden file. Any nondeterminism —
// map-iteration ordering, unsorted retirement, unstable float accumulation
// — shows up here as a digest mismatch.
//
// The committed digests assume one architecture (CI's): Go permits FMA
// contraction on some platforms, which can perturb float low bits. The
// run-vs-run half of the test is architecture-independent.
func TestGoldenTraceDeterminism(t *testing.T) {
	eval, models, est := goldenWorld(t)

	var lines []string
	for _, gs := range goldenSchedulers(models, est) {
		d1, m1, n1 := runTraced(t, eval, gs.name, gs.mk)
		d2, m2, n2 := runTraced(t, eval, gs.name, gs.mk)
		if d1 != d2 {
			t.Errorf("%s: trace digest differs across identical runs: %s vs %s (%d vs %d events)",
				gs.name, d1, d2, n1, n2)
		}
		if m1 != m2 {
			t.Errorf("%s: metrics differ across identical runs:\n  %s\n  %s", gs.name, m1, m2)
		}
		lines = append(lines, fmt.Sprintf("%-8s %s", gs.name, d1))
		t.Logf("%s: %d events, digest %s", gs.name, n1, d1)
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenFile)
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden digests changed — the decision sequence is different.\ngot:\n%swant:\n%s"+
			"If intentional, re-run with -update-golden and commit the new file.", got, want)
	}
}
