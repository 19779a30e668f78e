// Package lab is the experiment harness: one function per table and figure
// of the paper's evaluation (§4), each regenerating the artifact's rows or
// series from this repository's substrates. cmd/lucidbench is a thin wrapper
// over this package; EXPERIMENTS.md records the outputs next to the paper's
// numbers.
//
// Every experiment accepts a Scale in (0, 1] that subsamples the trace job
// counts so the full suite can run quickly in CI (Scale 1.0 reproduces the
// Table 2 workload sizes).
package lab

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/feat"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// World is a prepared evaluation context for one cluster: a history month
// (model training data), an evaluation month, and the models fit on the
// history month at their first use — Lucid's (Models) and the GBDT
// estimator.
type World struct {
	Spec    trace.GenSpec
	History *trace.Trace
	Eval    *trace.Trace
	// models yields Lucid's models; BuildWorld's fits them at the first call
	// (lazyModels), so the first Lucid run over a world pays for the fit.
	models func() *core.Models
	// Estimator is the black-box GBDT duration model QSSF and Horus use
	// (their papers use LightGBM-family models). BuildWorld fits it on the
	// history month at its first EstimateSec, not during the build, so the
	// first QSSF or Horus run over a world pays for the fit in its own wall
	// time.
	Estimator sched.Estimator
}

// Models returns Lucid's models trained on the world's history month, shared
// by every caller: a run clones them (see NewLucid).
func (w *World) Models() *core.Models { return w.models() }

// CheckScale refuses a scale outside (0, 1], the fractions of the Table 2
// job count BuildWorld can replay.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("lab: scale %v is outside (0, 1]", scale)
	}
	return nil
}

// BuildWorld generates the traces of one trace spec at the given scale.
// Scaling shrinks the job count AND the cluster together, so the offered-load
// profile — and therefore the queueing behaviour the schedulers differ on —
// matches the full-size trace. Scale 1.0 reproduces the Table 2
// configuration exactly.
//
// The build emits the history month and then the evaluation month. Lucid's
// models are left to their first use (see World.Models) and the GBDT
// estimator to its first estimate (see World.Estimator).
func BuildWorld(spec trace.GenSpec, scale float64) (*World, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	n := int(float64(spec.NumJobs) * scale)
	if n < 500 {
		n = 500
	}
	if scale < 1 {
		nodes := int(float64(spec.Nodes) * float64(n) / float64(spec.NumJobs))
		if nodes < 4 {
			nodes = 4
		}
		// Preserve the nodes-per-VC ratio so scaled VCs keep realistic
		// capacity for multi-GPU jobs.
		perVC := spec.Nodes / spec.NumVCs
		if perVC < 1 {
			perVC = 1
		}
		// Keep enough VCs for the load skew that drives queueing; a
		// single-VC original (Philly) stays single-VC.
		minVCs := spec.NumVCs
		if minVCs > 4 {
			minVCs = 4
		}
		spec.Nodes = nodes
		spec.NumVCs = nodes / perVC
		if spec.NumVCs < minVCs {
			spec.NumVCs = minVCs
		}
		if spec.NumVCs > nodes/2 {
			spec.NumVCs = nodes / 2
		}
		if spec.NumVCs < 1 {
			spec.NumVCs = 1
		}
	}
	g := trace.NewGenerator(spec)
	hist := g.Emit(n)
	if hist.Days*24 <= feat.ThroughputWarmup() {
		return nil, fmt.Errorf("lab: %s: a %d-day history is too short for Lucid's throughput forecaster", spec.Name, hist.Days)
	}
	eval := g.Emit(n)
	return &World{Spec: spec, History: hist, Eval: eval,
		models: lazyModels(spec.Name, hist), Estimator: &lazyGBDT{world: spec.Name, hist: hist}}, nil
}

// SimOpts are the standard large-scale simulation options.
func SimOpts() sim.Options {
	return sim.Options{Tick: 60, SchedulerEvery: 60}
}

// LucidOpts adds the profiling partition (scaled with the cluster: ~2 % of
// nodes, at least 2).
func LucidOpts(spec trace.GenSpec) sim.Options {
	o := SimOpts()
	o.ProfilerNodes = spec.Nodes / 33
	if o.ProfilerNodes < 2 {
		o.ProfilerNodes = 2
	}
	return o
}

// Schedulers instantiates the §4.1 baseline set plus Lucid for a world, in
// the paper's presentation order.
func (w *World) Schedulers() []NamedRun {
	cfg := core.DefaultConfig()
	return []NamedRun{
		{"FIFO", sched.NewFIFO(), SimOpts()},
		{"SJF", sched.NewSJF(), SimOpts()},
		{"QSSF", sched.NewQSSF(w.Estimator), SimOpts()},
		{"Horus", sched.NewHorus(w.Estimator, w.Spec.Seed), SimOpts()},
		{"Tiresias", sched.NewTiresias(), SimOpts()},
		{"Lucid", w.lucid(cfg, nil), LucidOpts(w.Spec)},
	}
}

// NamedRun pairs a scheduler with its simulation options.
type NamedRun struct {
	Name  string
	Sched sim.Scheduler
	Opts  sim.Options
}

// NewLucid builds a Lucid scheduler over a private clone of the world's
// models. Worlds may be cached (GetWorld) and shared across experiments
// and goroutines, and Lucid's Update Engine and online forecaster mutate
// model state in place — every run must therefore start from a clone, or
// one run's updates leak into the next and results depend on execution
// order.
func (w *World) NewLucid(cfg core.Config) sim.Scheduler {
	return w.lucid(cfg, nil)
}

// NewLucidTuned builds a Lucid whose config may carry non-default classifier
// thresholds. The Packing Analyze Model is threshold-dependent — its labeled
// dataset is cut at (Medium, Tiny) — so the world's cached analyzer (trained
// at the defaults) would silently ignore a tuned cut point; this retrains it
// on the variant thresholds. With default thresholds it is NewLucid.
// BinderThresholdStudy (§4.5(2)) builds every threshold variant through here.
func (w *World) NewLucidTuned(cfg core.Config) (sim.Scheduler, error) {
	cfg = cfg.Normalized()
	if cfg.Thresholds == workload.DefaultThresholds {
		return w.NewLucid(cfg), nil
	}
	analyzer, err := core.TrainPackingAnalyzer(cfg.Thresholds)
	if err != nil {
		return nil, err
	}
	return w.lucid(cfg, analyzer), nil
}

// lucid builds every Lucid over the world: its models are a clone of
// w.Models(), taken at the scheduler's first use, with the analyzer swapped
// for a non-nil one.
func (w *World) lucid(cfg core.Config, analyzer *core.PackingAnalyzer) *core.Lucid {
	return core.NewDeferred(func() *core.Models {
		m := w.Models().Clone()
		if analyzer != nil {
			m.Analyzer = analyzer
		}
		return m
	}, cfg)
}

// Run executes one scheduler over the world's evaluation trace.
func (w *World) Run(nr NamedRun) *sim.Result {
	return sim.New(w.Eval, nr.Sched, nr.Opts).Run()
}

// SchedulerOrder is the canonical presentation order.
var SchedulerOrder = []string{"FIFO", "SJF", "QSSF", "Horus", "Tiresias", "Lucid"}

// table renders a simple aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}
