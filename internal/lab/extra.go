package lab

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BinderThresholdStudy reproduces §4.5(2): sweep the (Medium, Tiny)
// classifier thresholds and show average JCT is robust (<3.6 % spread in
// the paper) because Indolent Packing prioritizes non-interfering jobs
// regardless of the exact cut points.
func BinderThresholdStudy(scale float64) (spreadPct float64, report string, err error) {
	w, err := GetWorld(trace.Venus(), scale)
	if err != nil {
		return 0, "", err
	}
	ths := []workload.Thresholds{
		{Medium: 0.75, Tiny: 0.90},
		{Medium: 0.80, Tiny: 0.93},
		{Medium: 0.85, Tiny: 0.95}, // the default
		{Medium: 0.85, Tiny: 0.97},
	}
	type cell struct {
		res *sim.Result
		err error
	}
	cells := collectPar(len(ths), func(i int) cell {
		cfg := core.DefaultConfig()
		cfg.Thresholds = ths[i]
		lucid, err := w.NewLucidTuned(cfg)
		if err != nil {
			return cell{nil, err}
		}
		return cell{w.Run(NamedRun{"Lucid", lucid, LucidOpts(w.Spec)}), nil}
	})
	var tb [][]string
	var lo, hi float64
	for i, th := range ths {
		if cells[i].err != nil {
			return 0, "", cells[i].err
		}
		res := cells[i].res
		jct := res.AvgJCTSec
		if lo == 0 || jct < lo {
			lo = jct
		}
		if jct > hi {
			hi = jct
		}
		tb = append(tb, []string{
			fmt.Sprintf("(%.2f, %.2f)", th.Medium, th.Tiny),
			fmt.Sprintf("%.0f", jct),
			fmt.Sprintf("%.0f", res.AvgQueueSec),
			fmt.Sprintf("%d", res.SharedStarts)})
	}
	if lo > 0 {
		spreadPct = (hi - lo) / lo * 100
	}
	report = "§4.5(2) — binder threshold sensitivity on Venus (paper: <3.6% JCT spread)\n" +
		table([]string{"(Medium, Tiny)", "avg JCT(s)", "avg queue(s)", "packed"}, tb) +
		fmt.Sprintf("JCT spread: %.1f%%\n", spreadPct)
	return spreadPct, report, nil
}

// GuidedTuningStudy reproduces §4.6's System Adjustment: tune the profiler
// on last month's trace via simulation (the System Tuner), then compare the
// tuned configuration against the heuristic default on the next month.
func GuidedTuningStudy(scale float64) (string, error) {
	spec := trace.Venus()
	w, err := GetWorld(spec, scale)
	if err != nil {
		return "", err
	}
	base := core.DefaultConfig()

	// Tune on the *history* month (what an operator has), pick the winner.
	tuneOpts := LucidOpts(w.Spec)
	tuneOpts.Tick = 120 // coarse replays are fine for ranking configs
	cands := core.TuneProfiler(w.History, w.Models, base,
		[]int64{100, 200, 400}, []int{4, 8}, tuneOpts)
	best := cands[0]

	// Evaluate default vs tuned on the evaluation month.
	tuned := base
	tuned.TprofSec = best.TprofSec
	tuned.Nprof = best.Nprof
	res := w.RunMany([]NamedRun{
		{"default", w.NewLucid(base), LucidOpts(w.Spec)},
		{"tuned", w.NewLucid(tuned), LucidOpts(w.Spec)},
	})
	defRes, tunedRes := res[0], res[1]

	return fmt.Sprintf(`§4.6 — guided system tuning (System Tuner over last month's trace)
candidates ranked on history:
%s
default  (Tprof=%d, Nprof=%d): avg queue %.0f s, avg JCT %.0f s
tuned    (Tprof=%d, Nprof=%d): avg queue %.0f s, avg JCT %.0f s
`, core.RenderTuning(cands),
		base.TprofSec, base.Nprof, defRes.AvgQueueSec, defRes.AvgJCTSec,
		best.TprofSec, best.Nprof, tunedRes.AvgQueueSec, tunedRes.AvgJCTSec), nil
}

// MonotonicConstraintStudy reproduces the §4.6 model-troubleshooting claim:
// posing a monotonic constraint on the gpu_num shape function changes the
// estimator's held-out R². (The paper reports +2.6 % R² and −3.9 % queueing
// on Venus.)
func MonotonicConstraintStudy(scale float64) (string, error) {
	spec := trace.Venus()
	n := int(float64(spec.NumJobs) * scale)
	if n < 2000 {
		n = 2000
	}
	g := trace.NewGenerator(spec)
	hist := g.Emit(n)
	next := g.Emit(n)

	plain, err := core.TrainWorkloadEstimatorUnconstrained(hist.Jobs)
	if err != nil {
		return "", err
	}
	mono, err := core.TrainWorkloadEstimator(hist.Jobs)
	if err != nil {
		return "", err
	}
	r2Plain := plain.EvalR2(next.Jobs)
	r2Mono := mono.EvalR2(next.Jobs)
	return fmt.Sprintf(`§4.6 — monotonic constraint on gpu_num (PAV projection)
unconstrained R²: %.3f
constrained   R²: %.3f (paper: +2.6%% from the constraint)
`, r2Plain, r2Mono), nil
}
