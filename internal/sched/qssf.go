package sched

import (
	"slices"

	"repro/internal/job"
	"repro/internal/sim"
)

// QSSF is Quasi-Shortest-Service-First from Helios (§4.1 baseline 3, the
// paper's citation [42]): prioritize by *predicted service* — estimated
// duration × GPU demand — from a black-box ML model trained on historical
// logs. Non-preemptive and non-intrusive, but opaque (the paper's critique)
// and profile-blind: unlike Lucid it cannot fold profiled features into the
// estimate or pack jobs.
type QSSF struct {
	est Estimator
}

// NewQSSF builds the policy around a duration estimator (typically the GBDT
// stand-in for Helios's LightGBM).
func NewQSSF(est Estimator) *QSSF { return &QSSF{est: est} }

// Name implements sim.Scheduler.
func (*QSSF) Name() string { return "QSSF" }

// Tick drains each VC queue in predicted-service order.
func (q *QSSF) Tick(env *sim.Env) {
	for _, qu := range env.Queues() {
		jobs := slices.Clone(qu.Jobs) // the queue itself is the engine's
		stableSortBy(jobs, func(j *job.Job) float64 {
			return q.est.EstimateSec(j) * float64(j.GPUs)
		})
		placeGreedy(env, jobs)
	}
}
