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
	if _, bad := e.s.unplaceable(j); bad || gpus <= 0 {
		return false
	}
	if gpus > j.GPUs {
		gpus = j.GPUs
	}
	placed, err := e.s.main.Allocate(j.ID, j.VC, gpus, 0)
	if err != nil {
		return false
	}
	e.s.startRunning(j, placed, gpus)
	e.s.trace(dtrace.ActPlaceElastic, j, "elastic", 0)
	return true
}

// ResizeElastic changes a running elastic job's allocation, charging the
// resize overhead. Returns false (leaving the job running at its old size)
// if the new allocation cannot be placed.
func (e *Env) ResizeElastic(j *job.Job, gpus int) bool {
	if j.State != job.Running || !e.s.own(j) {
		return false
	}
	old := e.ElasticAlloc(j)
	if old == 0 || gpus == old || gpus <= 0 {
		return false
	}
	if gpus > j.GPUs {
		gpus = j.GPUs
	}
	s := e.s
	s.freeMain(j.ID)
	placed, err := s.main.Allocate(j.ID, j.VC, gpus, 0)
	resized := err == nil
	if !resized {
		// Roll back to the old allocation; the cluster was just holding it,
		// so this cannot fail.
		gpus = old
		if placed, err = s.main.Allocate(j.ID, j.VC, old, 0); err != nil {
			// Defensive: if fragmentation somehow blocks the rollback, park
			// the job back in the queue.
			s.evict(j)
			j.State = job.Pending
			s.enqueue(j)
			return false
		}
	}
	// The job sits on the nodes the allocator picked this time: its
	// straggler factor is theirs, not that of the nodes it left, and its
	// speed follows.
	p := s.running.rec(j.ID)
	p.gen, p.elastic = s.stragglerFactor(placed), gpus
	s.running.markStale(j.ID)
	if resized {
		j.ColdStart += ElasticResizeOverheadSec
		p.predSeq = 0 // the restart moves the completion even at an equal speed
	}
	return resized
}

// ElasticAlloc returns the job's current elastic allocation (0 if the job is
// not elastically scheduled).
func (e *Env) ElasticAlloc(j *job.Job) int {
	if p := e.s.running.rec(j.ID); p != nil {
		return p.elastic
	}
	return 0
}

// elasticSpeed converts an allocation fraction into execution speed.
func elasticSpeed(alloc, demand int) float64 {
	if alloc >= demand {
		return 1
	}
	return math.Pow(float64(alloc)/float64(demand), elasticScalingExp)
}
