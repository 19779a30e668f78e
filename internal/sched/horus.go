package sched

import (
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

	buf []ranked // scratch for one queue's order
}

// Horus's graph-based prediction error has relative std-dev predNoise, and it
// packs while the predicted combined utilization stays within utilBudget.
const predNoise, utilBudget = 0.22, 105.0

// NewHorus builds the policy around a duration estimator (Horus is also
// data-driven for ordering) and a seed for its prediction noise.
func NewHorus(est Estimator, seed uint64) *Horus {
	return &Horus{
		est:       est,
		rng:       xrand.New(seed ^ 0x40e05),
		predicted: make(map[int]workload.Profile),
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
		n := v * (1 + h.rng.Norm(0, predNoise))
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
		h.buf = rankBy(h.buf, q.Jobs, func(j *job.Job) float64 {
			return h.est.EstimateSec(j) * float64(j.GPUs)
		})
		for _, r := range h.buf {
			j := r.j
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
	bestSum := utilBudget
	for _, r := range running {
		if r.VCPos != j.VCPos || r.GPUs != j.GPUs || r.State != job.Running {
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
