package sim

import (
	"math"

	"repro/internal/dtrace"
	"repro/internal/job"
)

// Elastic-scheduling support for the Pollux-style baseline (§4.7). Elastic
// schedulers are intrusive by definition: they resize a job's GPU allocation
// below (or up to) its demand and adapt training to match. The simulator
// models the resulting speed as a sublinear function of the allocated
// fraction — Pollux's goodput exhibits diminishing returns — and charges a
// small restart cost on every resize.

// elasticScalingExp is the speedup exponent: speed = (alloc/demand)^exp.
const elasticScalingExp = 1.0

// ElasticResizeOverheadSec is the no-progress cost of one resize.
const ElasticResizeOverheadSec = 30

// StartElastic places the job with an allocation of gpus (which may be below
// its demand) and registers elastic speed scaling for it.
func (e *Env) StartElastic(j *job.Job, gpus int) bool {
	if j.State == job.Running || j.State == job.Finished || gpus <= 0 {
		return false
	}
	if gpus > j.GPUs {
		gpus = j.GPUs
	}
	placed, err := e.s.main.Allocate(j.ID, j.VC, gpus, 0)
	if err != nil {
		return false
	}
	e.s.recordGenSpeed(j.ID, placed)
	if e.s.elastic == nil {
		e.s.elastic = make(map[int]int)
	}
	e.s.elastic[j.ID] = gpus
	e.s.startRunning(j)
	e.s.record(EvStartElastic, j.ID, gpus, j.VC)
	e.s.trace(dtrace.ActPlaceElastic, j, "elastic", 0)
	return true
}

// ResizeElastic changes a running elastic job's allocation, charging the
// resize overhead. Returns false (leaving the job running at its old size)
// if the new allocation cannot be placed.
func (e *Env) ResizeElastic(j *job.Job, gpus int) bool {
	if j.State != job.Running {
		return false
	}
	old, ok := e.s.elastic[j.ID]
	if !ok || gpus == old || gpus <= 0 {
		return false
	}
	if gpus > j.GPUs {
		gpus = j.GPUs
	}
	e.s.main.Free(j.ID)
	if _, err := e.s.main.Allocate(j.ID, j.VC, gpus, 0); err != nil {
		// Roll back to the old allocation; the cluster was just holding it,
		// so this cannot fail.
		if _, err2 := e.s.main.Allocate(j.ID, j.VC, old, 0); err2 != nil {
			// Defensive: if fragmentation somehow blocks the rollback, park
			// the job back in the queue.
			e.s.evict(j)
			j.State = job.Pending
		}
		return false
	}
	e.s.elastic[j.ID] = gpus
	j.ColdStart += ElasticResizeOverheadSec
	return true
}

// ElasticAlloc returns the job's current elastic allocation (0 if the job is
// not elastically scheduled).
func (e *Env) ElasticAlloc(j *job.Job) int { return e.s.elastic[j.ID] }

// elasticSpeed converts an allocation fraction into execution speed.
func elasticSpeed(alloc, demand int) float64 {
	if alloc >= demand {
		return 1
	}
	return math.Pow(float64(alloc)/float64(demand), elasticScalingExp)
}
