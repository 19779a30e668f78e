package sim

import (
	"slices"

	"repro/internal/job"
)

// placement is everything the engine knows about one resident job beyond the
// job itself. It lives beside the job in the resident set, so it is created
// when the job is placed and gone when the job leaves: nothing has to
// remember to forget it, and every per-resident loop reads it by position.
type placement struct {
	// speed is the job's execution speed under its current colocation,
	// straggler factor included. A pure function of the placement, so it is
	// recomputed only when stale is set (see Sim.recomputeSpeeds).
	speed float64
	stale bool
	// gen is the straggler factor (Sim.stragglerFactor): the minimum chaos
	// slowdown across the job's nodes, since a distributed job goes at its
	// slowest worker's pace, and 1.0 without stragglers. Snapshots carry it
	// as GenSpeed; 0 — a snapshot that did not carry it — reads as 1.
	gen float64
	// elastic is the job's current GPU allocation when it was placed through
	// StartElastic (Pollux baseline; see elastic.go), 0 otherwise.
	elastic int
	// profStart is when the job's profiling run began (profiling set only).
	profStart int64
	// predSeq and predSpeed describe the completion prediction the event
	// engine holds for this placement: the heap entry's sequence number (0 =
	// none yet) and the speed it assumed. The prediction stays valid while
	// the speed is unchanged; a new placement is a new record, so it starts
	// without one.
	predSeq   uint64
	predSpeed float64
}

// residents is the set of jobs resident on one cluster (main or profiler),
// held in strictly ascending job-ID order, with each job's placement record
// at the same position in recs. It is the only record of membership — a job
// is in the running set exactly when its State is Running, in the profiling
// set exactly when it is Profiling (checked every tick under
// Options.Invariants) — and the order is structural: every engine loop and
// every Env view ranges over the slices as they stand, nothing sorts and
// nothing looks a job up by ID.
//
// view hands the job slice itself to schedulers, so it is copy-on-write: the
// first insert or remove after a view moves the set to a fresh backing array
// and the caller's slice keeps the population it was taken over. Schedulers
// depend on that (Horus holds one view across its own placements; the
// profiler stops jobs while ranging over one). recs is never lent and is
// edited in place.
type residents struct {
	idset
	recs []placement
	// stale is set while some record's speed needs recomputing.
	stale bool
}

// idset is a job list in strictly ascending ID order, lent to schedulers
// without copying and copy-on-write after that: the resident sets' members,
// and the running set's (VC, GPUs) slices behind Env.RunningWith.
type idset struct {
	jobs []*job.Job
	// lent is set while a caller may hold the current backing array.
	lent bool
}

// view returns the members in ID order without copying. The capacity is
// clipped, so a caller's append reallocates instead of writing past the end
// into engine memory. Callers must not assign to elements.
func (r *idset) view() []*job.Job {
	r.lent = true
	return r.jobs[:len(r.jobs):len(r.jobs)]
}

// find returns the position of the job with the given ID, or where it would
// be inserted.
func (r *idset) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r.jobs, id, func(j *job.Job, id int) int { return j.ID - id })
}

func (r *idset) has(id int) bool {
	_, ok := r.find(id)
	return ok
}

// own moves the set off a backing array a caller may still be reading.
func (r *idset) own() {
	if r.lent {
		r.jobs, r.lent = slices.Clone(r.jobs), false
	}
}

// add puts j at its ID position and returns it; ok is false, and nothing
// changes, for a member.
func (r *idset) add(j *job.Job) (at int, ok bool) {
	i, dup := r.find(j.ID)
	if dup {
		return i, false
	}
	r.own()
	r.jobs = slices.Insert(r.jobs, i, j)
	return i, true
}

// drop takes the job with the given ID out and returns where it was; ok is
// false, and nothing changes, for a non-member.
func (r *idset) drop(id int) (at int, ok bool) {
	i, ok := r.find(id)
	if !ok {
		return i, false
	}
	r.own()
	r.jobs = slices.Delete(r.jobs, i, i+1)
	return i, true
}

// rec returns the placement record of the job with the given ID, nil for a
// non-member. The pointer is good until the next insert or remove.
func (r *residents) rec(id int) *placement {
	if i, ok := r.find(id); ok {
		return &r.recs[i]
	}
	return nil
}

// markStale asks for the member's speed to be recomputed at the end of the
// tick (a no-op for non-members).
func (r *residents) markStale(id int) {
	if p := r.rec(id); p != nil {
		p.stale, r.stale = true, true
	}
}

// insert adds j at its ID position with the given record (a no-op if it is
// already a member).
func (r *residents) insert(j *job.Job, p placement) {
	if i, ok := r.add(j); ok {
		r.recs = slices.Insert(r.recs, i, p)
		r.stale = r.stale || p.stale
	}
}

// remove deletes the job with the given ID and its record (a no-op for
// non-members).
func (r *residents) remove(id int) {
	if i, ok := r.drop(id); ok {
		r.recs = slices.Delete(r.recs, i, i+1)
	}
}

// peers is the running set cut by (VC, GPU demand), the candidates §3.3's
// rule 2 allows a packing partner to come from: per VC position (Sim.vcPos),
// one set per demand present. The engine builds it on the first
// Env.RunningWith and from then on keeps it beside the running set, at the
// two places a job enters and leaves that set (startRunning, evict), so a
// policy that never asks pays one nil check per placement.
type peers [][]peerSet

type peerSet struct {
	gpus int
	idset
}

// of returns the set of the given VC position and demand, making it on first
// use.
func (p peers) of(vc, gpus int) *idset {
	sets := &p[vc]
	for i := range *sets {
		if (*sets)[i].gpus == gpus {
			return &(*sets)[i].idset
		}
	}
	*sets = append(*sets, peerSet{gpus: gpus})
	return &(*sets)[len(*sets)-1].idset
}
