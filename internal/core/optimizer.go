package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// System Tuner (§3.6.1): because Lucid is data-driven and fully
// interpretable, operators can tune it by *simulating* candidate
// configurations on recent trace data instead of guessing. TuneProfiler
// implements the §4.6 guided adjustment of the Non-intrusive Job Profiler:
// it replays the previous window under a grid of (Tprof, Nprof) candidates
// and returns the configuration minimizing average queuing delay.
//
// The model-side tuning — posing monotonic constraints on learned shape
// functions via PAV — lives in WorkloadEstimator.monotonicGPUNum and
// gam.ApplyMonotonic.

// TuneCandidate is one profiler configuration with its simulated outcome.
type TuneCandidate struct {
	TprofSec    int64
	Nprof       int
	AvgQueueSec float64
	AvgJCTSec   float64
}

// TuneProfiler grid-searches profiler settings over a replay of the recent
// trace (only the profiler knobs move between candidates). Each replay gets
// a private clone of the models: Lucid's forecaster mutates model state
// during a run, and a shared instance would let one candidate's replay bias
// the next — and mutate a caller's (possibly cached, shared) models.
// Returns candidates sorted best-first by average queuing delay.
func TuneProfiler(recent *trace.Trace, models *Models, base Config,
	tprofs []int64, nprofs []int, opts sim.Options) []TuneCandidate {

	var out []TuneCandidate
	for _, tp := range tprofs {
		for _, np := range nprofs {
			cfg := base
			cfg.TprofSec = tp
			cfg.Nprof = np
			cfg.UpdateIntervalSec = 0 // keep replays cheap and comparable
			res := sim.New(recent, New(models.Clone(), cfg), opts).Run()
			out = append(out, TuneCandidate{
				TprofSec:    tp,
				Nprof:       np,
				AvgQueueSec: res.AvgQueueSec,
				AvgJCTSec:   res.AvgJCTSec,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AvgQueueSec < out[j].AvgQueueSec })
	return out
}

// RenderTuning formats a tuning report for operators.
func RenderTuning(cands []TuneCandidate) string {
	var sb strings.Builder
	sb.WriteString("Tprof(s)  Nprof  avgQueue(s)  avgJCT(s)\n")
	for _, c := range cands {
		fmt.Fprintf(&sb, "%8d  %5d  %11.0f  %9.0f\n", c.TprofSec, c.Nprof, c.AvgQueueSec, c.AvgJCTSec)
	}
	return sb.String()
}
