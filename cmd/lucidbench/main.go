// Command lucidbench regenerates every table and figure of the Lucid
// paper's evaluation section from this repository's substrates. Each
// experiment is addressable by id; -exp all runs the full suite. -list and
// -help enumerate every registered experiment.
//
// Usage:
//
//	lucidbench -exp tab4 -scale 0.2
//	lucidbench -exp all -scale 0.1 -parallel 8
//	lucidbench -list
//
// Independent simulation runs within each experiment fan out across a
// bounded worker pool (-parallel, default GOMAXPROCS); -parallel 1 forces
// serial execution. Worlds (trace months, and the models fit on them at
// first use) are memoized process-wide, so experiments sharing a (cluster,
// scale) pair build and train once; the suite line and -metrics-out report
// how many worlds were built and the seconds the builds took, and beside
// them how many worlds fit Lucid's models and the seconds the fits took.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// experiment maps an id to a runner.
type experiment struct {
	id, desc string
	run      func(scale float64) (string, error)
}

func experiments() []experiment {
	return []experiment{
		{"fig2a", "pair speed vs accumulated GPU utilization + fit", func(float64) (string, error) {
			_, rep := lab.Fig2a()
			return rep, nil
		}},
		{"fig2b", "batch size & AMP effect on packing speed", func(float64) (string, error) {
			_, rep := lab.Fig2b()
			return rep, nil
		}},
		{"fig3", "packing examples (ResNet-18 pairs; multi-GPU scales)", func(float64) (string, error) {
			_, repA := lab.Fig3a()
			_, repB := lab.Fig3b()
			return repA + "\n" + repB, nil
		}},
		{"fig5", "indolent packing decision quality", func(float64) (string, error) {
			_, rep, err := lab.Fig5()
			return rep, err
		}},
		{"fig6", "Packing Analyze Model tree + importances", func(float64) (string, error) {
			return lab.Fig6()
		}},
		{"fig7", "GAM interpretations (global, shape, local)", lab.Fig7},
		{"tab3", "physical-vs-simulation fidelity on the 32-GPU testbed", func(float64) (string, error) {
			_, rep, err := lab.Table3(1)
			return rep, err
		}},
		{"tab4", "end-to-end: 3 clusters × 6 schedulers (also fig8, fig9, tab5)", runTab4},
		{"tab5", "large vs small jobs on Venus", runTab5},
		{"fig8", "JCT CDF checkpoints", runFig8},
		{"fig9", "per-VC queuing delay", runFig9},
		{"fig10a", "scheduling latency vs queue size", runFig10a},
		{"fig10b", "model training time per cluster", func(scale float64) (string, error) {
			return lab.Fig10b(allSpecs(), scale)
		}},
		{"fig11a", "component ablations on Venus", func(scale float64) (string, error) {
			_, rep, err := lab.Fig11a(scale)
			return rep, err
		}},
		{"fig11b", "space-aware profiling vs naive", func(scale float64) (string, error) {
			return lab.Fig11b(allSpecs(), scale)
		}},
		{"fig12", "workload-distribution sensitivity (Venus-L/M/H)", lab.Fig12},
		{"fig13", "prediction visualization (throughput, durations)", lab.Fig13},
		{"fig14a", "Lucid vs Pollux vs Tiresias under intensity", func(float64) (string, error) {
			return lab.Fig14a([]float64{0.5, 1.0, 1.5, 2.0, 2.5}, 5)
		}},
		{"fig14b", "validation accuracy with/without adaptive training", func(float64) (string, error) {
			_, _, rep := lab.Fig14b(7)
			return rep, nil
		}},
		{"tab6", "Tprof sensitivity", lab.Table6},
		{"tab7", "interpretable vs black-box model comparison", func(scale float64) (string, error) {
			_, rep, err := lab.Table7(scale)
			return rep, err
		}},
		{"update", "model update interval study (§4.5(3))", lab.UpdateIntervalStudy},
		{"thresholds", "binder threshold sensitivity (§4.5(2))", func(scale float64) (string, error) {
			_, rep, err := lab.BinderThresholdStudy(scale)
			return rep, err
		}},
		{"tuning", "guided system tuning (§4.6)", lab.GuidedTuningStudy},
		{"monotonic", "monotonic constraint study (§4.6)", lab.MonotonicConstraintStudy},
		{"fairness", "fairness extension: priority aging (§6)", lab.FairnessStudy},
		{"figr", "goodput & JCT under failure-rate sweep (chaos extension)", lab.FigR},
		{"warmstart", "warm-started what-if sweep via in-memory world forks", lab.WarmStartStudy},
	}
}

// listExperiments enumerates every registered experiment (the -list and
// -help body).
func listExperiments() string {
	var sb strings.Builder
	for _, e := range experiments() {
		fmt.Fprintf(&sb, "  %-8s %s\n", e.id, e.desc)
	}
	return sb.String()
}

// selectExperiments resolves an -exp value (ids separated by commas, or
// "all") against the registry, in registry order. Any unknown id is an
// error, so a typo cannot quietly shrink the list.
func selectExperiments(exps []experiment, spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(spec), ",") {
		want[strings.TrimSpace(id)] = true
	}
	var picked []experiment
	known := make([]string, 0, len(exps))
	for _, e := range exps {
		known = append(known, e.id)
		if want[e.id] || want["all"] {
			picked = append(picked, e)
		}
		delete(want, e.id)
	}
	delete(want, "all")
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		sort.Strings(known)
		return nil, fmt.Errorf("unknown experiment %q; known: %s", strings.Join(unknown, ","), strings.Join(known, " "))
	}
	return picked, nil
}

func allSpecs() []trace.GenSpec {
	return []trace.GenSpec{trace.Venus(), trace.Saturn(), trace.Philly()}
}

func runTab4(scale float64) (string, error) {
	_, results, rep, err := lab.Table4(allSpecs(), scale)
	if err != nil {
		return "", err
	}
	out := rep + "\n" + lab.Fig8(results) + "\n" + lab.Fig9(results)
	if venus, ok := results["Venus"]; ok {
		out += "\n" + lab.Table5(venus)
	}
	return out, nil
}

func runTab5(scale float64) (string, error) {
	_, results, _, err := lab.Table4([]trace.GenSpec{trace.Venus()}, scale)
	if err != nil {
		return "", err
	}
	return lab.Table5(results["Venus"]), nil
}

func runFig8(scale float64) (string, error) {
	_, results, _, err := lab.Table4(allSpecs(), scale)
	if err != nil {
		return "", err
	}
	return lab.Fig8(results), nil
}

func runFig9(scale float64) (string, error) {
	_, results, _, err := lab.Table4(allSpecs(), scale)
	if err != nil {
		return "", err
	}
	return lab.Fig9(results), nil
}

func runFig10a(scale float64) (string, error) {
	w, err := lab.GetWorld(trace.Venus(), scale)
	if err != nil {
		return "", err
	}
	_, rep, err := lab.Fig10a(w, []int{128, 256, 512, 1024, 2048})
	return rep, err
}

func main() {
	expID := flag.String("exp", "all", "experiment id (see -list)")
	scale := flag.Float64("scale", 0.2, "trace scale for end-to-end experiments")
	parallel := flag.Int("parallel", 0, "max concurrent simulation runs (0 = GOMAXPROCS, 1 = serial)")
	list := flag.Bool("list", false, "list experiment ids")
	metricsOut := flag.String("metrics-out", "", "write suite metrics (per-experiment wall-clock, world-cache stats) to this path in Prometheus text format")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: lucidbench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nExperiments (-exp id, comma-separated for several):\n%s", listExperiments())
	}
	flag.Parse()

	lab.SetParallelism(*parallel)
	if *list {
		fmt.Print(listExperiments())
		return
	}
	exps, err := selectExperiments(experiments(), *expID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The suite registry makes a benchmark run scrape-compatible with the
	// rest of the system: per-experiment wall-clock and world-cache hit
	// rates land in the same text format lucidd serves, so CI archives one
	// artifact kind for both.
	reg := metrics.New()
	expSeconds := reg.GaugeVec("lucidbench_experiment_seconds",
		"Wall-clock seconds per experiment.", "exp")
	expRuns := reg.Counter("lucidbench_experiments_total", "Experiments executed.")

	suiteStart := time.Now()
	for _, e := range exps {
		fmt.Printf("=== %s — %s ===\n", e.id, e.desc)
		t0 := time.Now()
		rep, err := e.run(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		elapsed := time.Since(t0).Seconds()
		expSeconds.With(e.id).Set(elapsed)
		expRuns.Inc()
		fmt.Println(rep)
		fmt.Printf("(%.1fs)\n\n", elapsed)
	}
	builds, hits, buildSec := lab.WorldCacheStats()
	fits, fitSec := lab.ModelFitStats()
	if len(exps) > 1 {
		fmt.Printf("suite wall-clock: %.1fs (parallelism %d; worlds built %d in %.2fs, Lucid models fit %d in %.2fs, cache hits %d)\n",
			time.Since(suiteStart).Seconds(), lab.Parallelism(), builds, buildSec, fits, fitSec, hits)
	}
	if *metricsOut != "" {
		reg.Gauge("lucidbench_suite_seconds", "Suite wall-clock seconds.").
			Set(time.Since(suiteStart).Seconds())
		reg.Gauge("lucidbench_worlds_built", "Worlds (history and evaluation trace months) built.").
			Set(float64(builds))
		reg.Gauge("lucidbench_world_build_seconds",
			"Wall seconds spent building worlds, summed over builds (model fits happen in the runs).").
			Set(buildSec)
		reg.Gauge("lucidbench_model_fits", "Worlds whose Lucid models were fit, at their first Lucid run.").
			Set(float64(fits))
		reg.Gauge("lucidbench_model_fit_seconds", "Wall seconds spent fitting Lucid's models, summed over fits.").
			Set(fitSec)
		reg.Gauge("lucidbench_world_cache_hits", "World cache hits.").
			Set(float64(hits))
		reg.Gauge("lucidbench_parallelism", "Concurrent simulation-run cap.").
			Set(float64(lab.Parallelism()))
		if err := os.WriteFile(*metricsOut, []byte(reg.Render()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write metrics dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("suite metrics → %s\n", *metricsOut)
	}
}
