package sched

import (
	"slices"

	"repro/internal/job"
	"repro/internal/sim"
)

// SJF is Shortest-Job-First with perfect duration information (§4.1
// baseline 2): "an ideal policy … impractical as it requires perfect job
// information which is impossible to attain." Non-preemptive; shorter jobs
// jump the queue, which dissolves HOL blocking.
type SJF struct{}

// NewSJF returns the oracle policy.
func NewSJF() *SJF { return &SJF{} }

// Name implements sim.Scheduler.
func (*SJF) Name() string { return "SJF" }

// Tick drains each VC queue in true-duration order, skipping jobs that do
// not fit.
func (*SJF) Tick(env *sim.Env) {
	for _, q := range env.Queues() {
		jobs := slices.Clone(q.Jobs) // the queue itself is the engine's
		stableSortBy(jobs, func(j *job.Job) float64 { return float64(j.Duration) })
		placeGreedy(env, jobs)
	}
}
