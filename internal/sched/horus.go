package sched

import (
	"slices"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Horus (Yeung et al., TPDS '22 — §4.1 baseline 4) is the intrusive
// packing-and-prediction baseline: it converts the user's model into an
// ONNX graph to *predict* GPU utilization before the job ever runs, then
// packs jobs whose predicted combined utilization fits. Being a static
// prediction from the graph rather than a measurement, the estimate carries
// error — we model it as multiplicative noise on the true profile, which is
// exactly why Horus sometimes packs jobs that interfere (its weak tail
// behaviour in Table 4).
type Horus struct {
	est Estimator
	rng *xrand.RNG
	// predicted caches the noisy utilization prediction per job so the
	// decision is consistent across ticks.
	predicted map[int]workload.Profile
	// PredNoise is the relative std-dev of the graph-based prediction error.
	PredNoise float64
	// UtilBudget is the packing acceptance threshold on predicted combined
	// utilization.
	UtilBudget float64
}

// NewHorus builds the policy around a duration estimator (Horus is also
// data-driven for ordering) and a seed for its prediction noise.
func NewHorus(est Estimator, seed uint64) *Horus {
	return &Horus{
		est:        est,
		rng:        xrand.New(seed ^ 0x40e05),
		predicted:  make(map[int]workload.Profile),
		PredNoise:  0.22,
		UtilBudget: 105,
	}
}

// Name implements sim.Scheduler.
func (*Horus) Name() string { return "Horus" }

// predict returns the (noisy, cached) profile prediction for a job. This is
// the intrusive step: Horus sees the model graph at submission, so the
// prediction exists before any run.
func (h *Horus) predict(j *job.Job) workload.Profile {
	if p, ok := h.predicted[j.ID]; ok {
		return p
	}
	truth := j.Config.Profile()
	noise := func(v float64) float64 {
		n := v * (1 + h.rng.Norm(0, h.PredNoise))
		if n < 1 {
			n = 1
		}
		return n
	}
	p := workload.Profile{
		GPUUtil:    noise(truth.GPUUtil),
		GPUMemMB:   noise(truth.GPUMemMB),
		GPUMemUtil: noise(truth.GPUMemUtil),
		AMP:        truth.AMP,
	}
	h.predicted[j.ID] = p
	return p
}

// Tick drains each VC by predicted service, packing when exclusive
// placement fails.
func (h *Horus) Tick(env *sim.Env) {
	running := env.Running()
	for _, q := range env.Queues() {
		jobs := slices.Clone(q.Jobs) // the queue itself is the engine's
		stableSortBy(jobs, func(j *job.Job) float64 {
			return h.est.EstimateSec(j) * float64(j.GPUs)
		})
		for _, j := range jobs {
			if env.StartExclusive(j) {
				running = append(running, j)
				continue
			}
			h.tryPack(env, j, running)
		}
	}
}

// tryPack colocates j with the running job minimizing predicted combined
// utilization, subject to the budget and a predicted-memory guard.
func (h *Horus) tryPack(env *sim.Env, j *job.Job, running []*job.Job) {
	pj := h.predict(j)
	var best *job.Job
	bestSum := h.UtilBudget
	for _, r := range running {
		if r.VC != j.VC || r.GPUs != j.GPUs || r.State != job.Running {
			continue
		}
		if env.Cluster().PartnerOf(r.ID) >= 0 {
			continue
		}
		pr := h.predict(r)
		if pj.GPUMemMB+pr.GPUMemMB > workload.GPUMemMBCap {
			continue
		}
		if sum := pj.GPUUtil + pr.GPUUtil; sum < bestSum {
			bestSum, best = sum, r
		}
	}
	if best != nil {
		env.StartShared(j, best)
	}
}
