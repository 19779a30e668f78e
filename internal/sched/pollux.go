package sched

import (
	"repro/internal/job"
	"repro/internal/sim"
)

// Pollux (Qiao et al., OSDI '21 — compared in §4.7) is the state-of-the-art
// elastic scheduler: it co-adapts each job's GPU allocation and batch size
// to maximize cluster goodput. Our stand-in keeps the two behaviours the
// paper's comparison hinges on:
//
//   - Elasticity: every active job gets at least one GPU when possible, and
//     leftover GPUs flow to the jobs with the best marginal speedup, so at
//     light load Pollux shines (nothing queues) while at heavy load every
//     job crawls along on a sliver of its demand — the Figure 14a crossover.
//   - Adaptive training: growing a job's allocation inflates its effective
//     batch size, which degrades final model accuracy (Figure 14b,
//     workload.AdaptiveBatchPenalty).
//
// Resizes are intrusive and charged sim.ElasticResizeOverheadSec each.
type Pollux struct {
	lastRealloc int64

	hungry []ranked // scratch for one VC's growth order
}

// reallocEverySec bounds how often the allocation is re-optimized: Pollux
// schedules in 60 s rounds.
const reallocEverySec = 60

// NewPollux returns the policy.
func NewPollux() *Pollux { return &Pollux{} }

// Name implements sim.Scheduler.
func (*Pollux) Name() string { return "Pollux" }

// Tick admits every waiting job at minimum size, then rebalances GPUs
// toward the jobs with the largest marginal goodput gain.
func (p *Pollux) Tick(env *sim.Env) {
	// Admission reads and changes only the job's own VC, so the VCs are
	// walked one after another.
	for _, q := range env.Queues() {
		for _, j := range q.Jobs {
			p.admit(env, j)
		}
	}
	p.realloc(env)
}

// admit tries to start a waiting job with its full demand when its VC is idle
// enough, else with 1 GPU. If not even one GPU is free, it shrinks the VC's
// fattest running job to make room — Pollux's defining move.
func (p *Pollux) admit(env *sim.Env, j *job.Job) {
	if env.Cluster().FreeGPUs(j.VC) >= j.GPUs && env.StartElastic(j, j.GPUs) {
		return
	}
	if !env.StartElastic(j, 1) && p.shrinkFattest(env, j.VC) {
		env.StartElastic(j, 1)
	}
}

// realloc re-optimizes the running jobs' allocations, at most once every
// reallocEverySec.
func (p *Pollux) realloc(env *sim.Env) {
	if env.Now()-p.lastRealloc < reallocEverySec {
		return
	}
	p.lastRealloc = env.Now()

	// Rebalance per VC: shrink over-allocated jobs when others starve, grow
	// under-allocated jobs into free capacity.
	running := env.Running()
	groups := byVC(running)
	for _, vc := range sortedVCs(groups) {
		jobs := groups[vc]
		// Starvation pass: if any job is far below fair share, shrink the
		// most over-allocated job one step.
		p.rebalance(env, jobs)
		// Growth pass: hand out free GPUs to the hungriest jobs.
		for _, r := range p.orderByHunger(env, jobs) {
			j := r.j
			alloc := env.ElasticAlloc(j)
			if alloc == 0 || alloc >= j.GPUs {
				continue
			}
			next := alloc * 2
			if next > j.GPUs {
				next = j.GPUs
			}
			if env.Cluster().FreeGPUs(vc) >= next-alloc {
				env.ResizeElastic(j, next)
			}
		}
	}
}

// shrinkFattest halves the allocation of the VC's most over-allocated
// running job; returns true if any capacity was released.
func (p *Pollux) shrinkFattest(env *sim.Env, vc string) bool {
	var fat *job.Job
	best := 0
	for _, r := range env.Running() {
		if r.VC != vc {
			continue
		}
		if a := env.ElasticAlloc(r); a > best {
			best, fat = a, r
		}
	}
	if fat == nil || best <= 1 {
		return false
	}
	return env.ResizeElastic(fat, best/2)
}

// rebalance shrinks the largest allocation when the smallest is starving.
func (p *Pollux) rebalance(env *sim.Env, jobs []*job.Job) {
	var minJ, maxJ *job.Job
	minFrac, maxFrac := 2.0, -1.0
	for _, j := range jobs {
		alloc := env.ElasticAlloc(j)
		if alloc == 0 {
			continue
		}
		frac := float64(alloc) / float64(j.GPUs)
		if frac < minFrac {
			minFrac, minJ = frac, j
		}
		if frac > maxFrac {
			maxFrac, maxJ = frac, j
		}
	}
	if minJ == nil || maxJ == nil || minJ == maxJ {
		return
	}
	// Squeeze only when the gap is material.
	if maxFrac > 2.5*minFrac && env.ElasticAlloc(maxJ) > 1 {
		env.ResizeElastic(maxJ, env.ElasticAlloc(maxJ)/2)
	}
}

// orderByHunger ranks jobs by allocation fraction ascending (hungriest
// first), in the scratch the next call overwrites.
func (p *Pollux) orderByHunger(env *sim.Env, jobs []*job.Job) []ranked {
	p.hungry = rankBy(p.hungry, jobs, func(j *job.Job) float64 {
		alloc := env.ElasticAlloc(j)
		if alloc == 0 {
			return 2
		}
		return float64(alloc) / float64(j.GPUs)
	})
	return p.hungry
}
