package core

import (
	"fmt"
	"sort"

	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
)

// Profiler is the Non-intrusive Job Profiler (§3.2): it runs each incoming
// job briefly on a decoupled profiling partition, collecting GPU
// utilization, memory footprint and memory utilization via the simulated
// equivalent of NVIDIA-SMI/DCGM. Debug and test jobs — the majority of the
// trace — simply finish there, giving users immediate feedback; surviving
// jobs emerge with the profile the Binder and Estimator need.
//
// Two-dimensional optimization:
//
//   - Space-aware Profiling (Algorithm 1): the profiling queue is sorted
//     least-GPUs-first and allocated consolidated/exclusively, dissolving
//     HOL blocking inside the small profiling partition.
//   - Time-aware Scaling: the profiling time limit and usable capacity
//     breathe with the Throughput Predict Model's forecast — bursts shrink
//     T_prof and borrow capacity, quiet hours return it.
type Profiler struct {
	// tprof is the per-job profiling time limit and nprof the job scale limit:
	// jobs demanding more GPUs skip profiling and are measured on the fly
	// (§3.2). spaceAware orders the profiling queue least-GPUs-first
	// (Algorithm 1; without it, the Figure 11b ablation, the queue stays
	// FIFO), and timeAware lets Retune follow the load forecast.
	tprof                 int64
	nprof                 int
	spaceAware, timeAware bool

	// capacityFrac is the currently usable fraction of the profiling
	// partition, adjusted by Time-aware Scaling.
	capacityFrac float64
	// tprofNow is the current (possibly scaled-down) time limit.
	tprofNow int64
}

// newProfiler returns the Profiler cfg's limits and ablation switches choose,
// at Time-aware Scaling's normal setting.
func newProfiler(cfg Config) *Profiler {
	return &Profiler{tprof: cfg.TprofSec, nprof: cfg.Nprof,
		spaceAware: !cfg.DisableSpaceAware, timeAware: !cfg.DisableTimeAware,
		capacityFrac: 0.75, tprofNow: cfg.TprofSec}
}

// Retune applies Time-aware Scaling from the load forecast: bursts borrow
// the whole partition and halve T_prof; quiet hours shrink usable capacity
// (returning the loaned nodes) and restore the full limit. Without timeAware
// every level gets the normal setting.
func (p *Profiler) Retune(level LoadLevel) {
	p.capacityFrac, p.tprofNow = 0.75, p.tprof
	if !p.timeAware {
		return
	}
	switch level {
	case LoadHigh:
		p.capacityFrac = 1.0
		p.tprofNow = max(p.tprof/2, 60)
	case LoadLow:
		p.capacityFrac = 0.5
	}
}

// CurrentTprof returns the active profiling time limit.
func (p *Profiler) CurrentTprof() int64 {
	if p.tprofNow <= 0 {
		return p.tprof
	}
	return p.tprofNow
}

// Step runs one profiler round (Algorithm 1) over the Pending jobs among
// waiting, which must be in (Submit, ID) order — the FIFO order a Profiler
// without spaceAware keeps: evict overtime jobs, admit oversized jobs on the
// fly, then fill the partition least-GPUs-first. onProfiled is invoked for
// each job that leaves the profiler Queued with a fresh profile — evicted,
// or admitted without a run.
func (p *Profiler) Step(env *sim.Env, waiting []*job.Job, onProfiled func(*job.Job)) {
	rec := env.Trace()

	// CheckRunningJobs: evict jobs that exceeded the limit.
	for _, j := range env.Profiling() {
		if elapsed := env.ProfilingElapsed(j); elapsed >= p.CurrentTprof() {
			if rec.Enabled() {
				// The engine's profile-stop event inherits this as its
				// reason: the Time-aware limit, not job completion, ended
				// the run.
				env.Annotate(j.ID, fmt.Sprintf("tprof-exceeded-%ds", p.CurrentTprof()),
					float64(elapsed), 0, nil)
			}
			env.StopProfiling(j)
			onProfiled(j)
		}
	}

	pc := env.ProfilerCluster()
	if pc == nil {
		// No profiling partition: everything is observed on the fly.
		for _, j := range waiting {
			if j.State == job.Pending {
				if rec.Enabled() {
					rec.Record(dtrace.Event{Tick: env.Now(), Job: j.ID,
						Action: dtrace.ActProfileSkip, Reason: "no-profiler-partition",
						VC: j.VC, GPUs: j.GPUs})
				}
				env.ObserveOnTheFly(j)
				env.Admit(j)
				onProfiled(j)
			}
		}
		return
	}

	// Job scale limit: oversized jobs skip profiling (metrics on the fly).
	// The effective limit is the smaller of Nprof and what the partition's
	// current capacity budget can ever host — a job larger than the budget
	// would otherwise wait forever for a slot that cannot exist.
	budget := int(float64(pc.TotalGPUs()) * p.capacityFrac)
	effLimit := p.nprof
	if budget < effLimit {
		effLimit = budget
	}
	var queue []*job.Job
	for _, j := range waiting {
		if j.State != job.Pending {
			continue
		}
		if j.GPUs > effLimit {
			if rec.Enabled() {
				// §3.2: oversized jobs skip profiling, metrics on the fly.
				// Score carries the effective scale limit that excluded it.
				rec.Record(dtrace.Event{Tick: env.Now(), Job: j.ID,
					Action: dtrace.ActProfileSkip, Reason: "exceeds-scale-limit",
					VC: j.VC, GPUs: j.GPUs, Score: float64(effLimit)})
			}
			env.ObserveOnTheFly(j)
			env.Admit(j)
			onProfiled(j)
			continue
		}
		queue = append(queue, j)
	}

	// SortJobGPUNum: least GPUs first (space-aware); FIFO otherwise.
	if p.spaceAware {
		sort.SliceStable(queue, func(a, b int) bool {
			if queue[a].GPUs != queue[b].GPUs {
				return queue[a].GPUs < queue[b].GPUs
			}
			if queue[a].Submit != queue[b].Submit {
				return queue[a].Submit < queue[b].Submit
			}
			return queue[a].ID < queue[b].ID
		})
	}

	// Consolidated allocation under the Time-aware capacity budget.
	used := pc.TotalGPUs() - pc.FreeGPUs("")
	for _, j := range queue {
		if used+j.GPUs > budget {
			break // capacity budget exhausted
		}
		if !env.StartProfiling(j) {
			break // Consolidate failed → later (larger) jobs cannot fit either
		}
		used += j.GPUs
	}
}
