package sim

import (
	"slices"

	"repro/internal/job"
)

// residents is the set of jobs resident on one cluster (main or profiler),
// held in strictly ascending job-ID order. It is the only record of
// membership — a job is in the running set exactly when its State is
// Running, in the profiling set exactly when it is Profiling (checked every
// tick under Options.Invariants) — and the order is structural: every engine
// loop and every Env view ranges over the slice as it stands, nothing sorts.
//
// view hands the slice itself to schedulers, so the set is copy-on-write: the
// first insert or remove after a view moves the set to a fresh backing array
// and the caller's slice keeps the population it was taken over. Schedulers
// depend on that (Horus holds one view across its own placements; the
// profiler stops jobs while ranging over one).
type residents struct {
	jobs []*job.Job
	// lent is set while a caller may hold the current backing array.
	lent bool
}

// view returns the members in ID order without copying. The capacity is
// clipped, so a caller's append reallocates instead of writing past the end
// into engine memory. Callers must not assign to elements.
func (r *residents) view() []*job.Job {
	r.lent = true
	return r.jobs[:len(r.jobs):len(r.jobs)]
}

// find returns the position of the job with the given ID, or where it would
// be inserted.
func (r *residents) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r.jobs, id, func(j *job.Job, id int) int { return j.ID - id })
}

func (r *residents) has(id int) bool {
	_, ok := r.find(id)
	return ok
}

// own moves the set off a backing array a caller may still be reading.
func (r *residents) own() {
	if r.lent {
		r.jobs, r.lent = slices.Clone(r.jobs), false
	}
}

// insert adds j at its ID position (a no-op if it is already a member).
func (r *residents) insert(j *job.Job) {
	i, ok := r.find(j.ID)
	if ok {
		return
	}
	r.own()
	r.jobs = slices.Insert(r.jobs, i, j)
}

// remove deletes the job with the given ID (a no-op for non-members).
func (r *residents) remove(id int) {
	i, ok := r.find(id)
	if !ok {
		return
	}
	r.own()
	r.jobs = slices.Delete(r.jobs, i, i+1)
}
