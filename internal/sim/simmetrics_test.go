// Engine metrics tests: Options.Metrics must observe the run without
// influencing it. External test package — uses real schedulers, which
// import sim.
package sim_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestMetricsDoNotPerturbDecisions is the acceptance gate for the metrics
// layer: timings are wall-clock observations that never feed back into
// simulation state, so the decision-trace digest must be byte-identical
// with metrics on or off, for the engine's instruments and for those a
// scheduler registers itself.
func TestMetricsDoNotPerturbDecisions(t *testing.T) {
	run := func(reg *metrics.Registry) string {
		rec := dtrace.New()
		tr := randomTrace(xrand.New(11), 150)
		sim.New(tr, sched.NewFIFO(), sim.Options{
			Tick: 30, SchedulerEvery: 60, DecisionTrace: rec, Metrics: reg,
		}).Run()
		return rec.Digest()
	}
	off, on := run(nil), run(metrics.New())
	if off != on {
		t.Fatalf("metrics perturbed decisions: digest %s (off) vs %s (on)", off, on)
	}

	// Lucid with its weekly Update Engine, whose refits Lucid times and
	// counts on the run's registry.
	w, err := lab.BuildWorld(trace.Venus(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	lucid := func(reg *metrics.Registry) string {
		rec := dtrace.New()
		opts := lab.LucidOpts(w.Spec)
		opts.DecisionTrace, opts.Metrics = rec, reg
		sim.New(w.Eval, w.NewLucid(core.DefaultConfig()), opts).Run()
		return rec.Digest()
	}
	reg := metrics.New()
	if off, on := lucid(nil), lucid(reg); off != on {
		t.Fatalf("metrics perturbed Lucid's decisions: digest %s (off) vs %s (on)", off, on)
	}
	refits := reg.CounterVec("lucid_refits_total", "", "kind")
	warm, full := refits.With("warm").Value(), refits.With("full").Value()
	if warm == 0 {
		t.Fatalf("lucid_refits_total: %v warm, %v full; the month should refit warm", warm, full)
	}
	stages := reg.HistogramVec("lucid_update_engine_seconds", "", metrics.ExpBuckets(1e-3, 2, 14), "stage")
	for _, stage := range []string{"featurize", "fit"} {
		if n := stages.With(stage).Count(); float64(n) != warm+full {
			t.Errorf("lucid_update_engine_seconds{stage=%q} timed %d refits, counted %v", stage, n, warm+full)
		}
	}
}

// TestSimMetricsExposition runs a small trace with a registry attached and
// checks every engine instrument shows up in the Prometheus text dump with
// sane values.
func TestSimMetricsExposition(t *testing.T) {
	reg := metrics.New()
	tr := drainTrace(xrand.New(3), 40)
	res := sim.New(tr, sched.NewFIFO(), sim.Options{
		Tick: 30, SchedulerEvery: 60, Metrics: reg,
	}).Run()
	if res.Unfinished > 0 {
		t.Fatalf("drain trace did not drain: %d unfinished", res.Unfinished)
	}
	out := reg.Render()
	for _, want := range []string{
		"# TYPE sim_ticks_total counter",
		"# TYPE sim_sched_invocations_total counter",
		`sim_phase_seconds_bucket{phase="advance",le="+Inf"}`,
		`sim_phase_seconds_bucket{phase="chaos",le="+Inf"}`,
		`sim_phase_seconds_bucket{phase="speeds",le="+Inf"}`,
		"sim_sched_decision_seconds_count",
		"sim_queue_depth",
		"sim_running_jobs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Re-registration is idempotent, so looking instruments up again returns
	// the engine's own (histograms must re-state the engine's buckets).
	ticks := reg.Counter("sim_ticks_total", "")
	decide := reg.Histogram("sim_sched_decision_seconds", "", metrics.ExpBuckets(1e-7, 2, 22))
	if ticks.Value() <= 0 {
		t.Error("no ticks counted")
	}
	if decide.Count() == 0 {
		t.Error("no scheduler decisions timed")
	}
	// All jobs drained: the running gauge must have settled back to 0.
	if g := reg.Gauge("sim_running_jobs", ""); g.Value() != 0 {
		t.Errorf("sim_running_jobs = %v after drain, want 0", g.Value())
	}
}

// TestZeroOptionsRunTheEventEngine: a caller who sets nothing gets the event
// engine — Options' zero value and ParseEngine("") both name it, and a run
// says so itself: sim_ticks_total counts every simulated tick under either
// engine, the advance phase is timed once per executed one, and only the
// tick engine executes them all.
func TestZeroOptionsRunTheEventEngine(t *testing.T) {
	if k := (sim.Options{}).Engine; k != sim.EngineEvent {
		t.Errorf("Options{}.Engine = %v, want event", k)
	}
	if k, err := sim.ParseEngine(""); err != nil || k != sim.EngineEvent {
		t.Errorf(`ParseEngine("") = %v, %v, want event`, k, err)
	}
	ticks := func(opts sim.Options) (simulated float64, executed uint64) {
		reg := metrics.New()
		opts.Metrics = reg
		sim.New(drainTrace(xrand.New(3), 40), sched.NewFIFO(), opts).Run()
		advance := reg.HistogramVec("sim_phase_seconds", "", metrics.ExpBuckets(1e-7, 2, 22), "phase").With("advance")
		return reg.Counter("sim_ticks_total", "").Value(), advance.Count()
	}
	simulated, executed := ticks(sim.Options{})
	if float64(executed) >= simulated {
		t.Errorf("zero options executed %d of %.0f simulated ticks: that is the tick engine", executed, simulated)
	}
	allSim, allExec := ticks(sim.Options{Engine: sim.EngineTick})
	if float64(allExec) != allSim || allSim != simulated {
		t.Errorf("tick engine executed %d of %.0f ticks, want all of the same %.0f", allExec, allSim, simulated)
	}
}
