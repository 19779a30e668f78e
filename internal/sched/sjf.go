package sched

import (
	"repro/internal/job"
	"repro/internal/sim"
)

// SJF is Shortest-Job-First with perfect duration information (§4.1
// baseline 2): "an ideal policy … impractical as it requires perfect job
// information which is impossible to attain." Non-preemptive; shorter jobs
// jump the queue, which dissolves HOL blocking.
type SJF struct {
	buf []ranked // scratch for one queue's order
}

// NewSJF returns the oracle policy.
func NewSJF() *SJF { return &SJF{} }

// Name implements sim.Scheduler.
func (*SJF) Name() string { return "SJF" }

// Tick drains each VC queue in true-duration order, skipping jobs that do
// not fit.
func (s *SJF) Tick(env *sim.Env) {
	for _, q := range env.Queues() {
		s.buf = rankBy(s.buf, q.Jobs, func(j *job.Job) float64 { return float64(j.Duration) })
		placeGreedy(env, s.buf)
	}
}
