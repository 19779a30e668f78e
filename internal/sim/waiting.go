package sim

import (
	"slices"

	"repro/internal/job"
)

// Queue is one virtual cluster's waiting jobs, in trace order, as Env.Queues
// hands them out. Pos is the VC's position, the job.Job.VCPos of the run's
// jobs of that VC.
type Queue struct {
	VC   string
	Pos  int
	Jobs []*job.Job
}

// waitq is the waiting set of one VC: the submitted jobs whose State is
// Pending or Queued (backoff-hidden ones included), in ascending trace index
// — the order jobs were admitted in, which is submit order with the trace's
// own tie-break. idx holds the keys, jobs the members, position for position.
// Together the VCs' sets are the only record of who is waiting: Env.Queues
// lends them, the metrics gauge sums their lengths.
//
// jobs is lent to schedulers like residents.jobs and is copy-on-write in the
// same way, with two cheaper cases. Taking the head off only moves the start
// of the slice, and appending past the end writes where no view reaches
// (views are capacity-clipped, and while the array is lent its end never
// moves back: every other removal leaves the array first). Those are the two
// things FIFO and the arrival stream do, so neither ever copies a queue.
type waitq struct {
	vc   string
	idx  []int32
	jobs []*job.Job
	lent bool
}

// view returns the members without copying, under residents.view's contract.
func (q *waitq) view() []*job.Job {
	q.lent = true
	return q.jobs[:len(q.jobs):len(q.jobs)]
}

func (q *waitq) has(i int32) bool {
	_, ok := slices.BinarySearch(q.idx, i)
	return ok
}

func (q *waitq) own() {
	if q.lent {
		q.jobs, q.lent = slices.Clone(q.jobs), false
	}
}

// add puts the job with trace index i in its place (a no-op for a member).
func (q *waitq) add(i int32, j *job.Job) {
	if n := len(q.idx); n == 0 || q.idx[n-1] < i {
		q.idx, q.jobs = append(q.idx, i), append(q.jobs, j)
		return
	}
	at, ok := slices.BinarySearch(q.idx, i)
	if ok {
		return
	}
	q.own()
	q.idx, q.jobs = slices.Insert(q.idx, at, i), slices.Insert(q.jobs, at, j)
}

// remove takes the job with trace index i out (a no-op for a non-member).
func (q *waitq) remove(i int32) {
	at, ok := slices.BinarySearch(q.idx, i)
	if !ok {
		return
	}
	if at == 0 {
		q.idx, q.jobs = q.idx[1:], q.jobs[1:]
		return
	}
	q.own()
	q.idx, q.jobs = slices.Delete(q.idx, at, at+1), slices.Delete(q.jobs, at, at+1)
}

// newWaiting returns one empty set per VC that appears in the trace, in name
// order, and the position of each by name.
func newWaiting(jobs []*job.Job) ([]waitq, map[string]int) {
	pos := map[string]int{}
	var names []string
	for _, j := range jobs {
		if _, ok := pos[j.VC]; !ok {
			pos[j.VC] = 0
			names = append(names, j.VC)
		}
	}
	slices.Sort(names)
	qs := make([]waitq, len(names))
	for i, vc := range names {
		qs[i].vc = vc
		pos[vc] = i
	}
	return qs, pos
}

// enqueue and dequeue are the two edges of the waiting set. Jobs enter when
// they are admitted and whenever they stop being resident without turning
// terminal (Preempt, StopProfiling, a fault requeue, the elastic rollback);
// they leave when they are placed on either cluster. A job is one of the
// run's own copies, so its VC position and slot find its place.
func (s *Sim) enqueue(j *job.Job) { s.waiting[j.VCPos].add(int32(j.Slot), j) }

func (s *Sim) dequeue(j *job.Job) { s.waiting[j.VCPos].remove(int32(j.Slot)) }

// waitingCount is the number of waiting jobs, backoff-hidden ones included.
func (s *Sim) waitingCount() int {
	n := 0
	for i := range s.waiting {
		n += len(s.waiting[i].jobs)
	}
	return n
}

// visible reports whether a waiting job may be shown to the scheduler:
// NextEligible hides fault-killed jobs until their requeue backoff elapses
// (always 0 without chaos).
func (s *Sim) visible(j *job.Job) bool { return j.NextEligible <= s.now }

// Queues returns the waiting jobs per VC — Pending (never profiled) and
// Queued (profiled, awaiting the main cluster) alike; schedulers distinguish
// by State — for the VCs that have one, VCs in name order, jobs in trace
// order. Each Jobs slice is a snapshot under Running's contract: jobs placed
// or requeued later do not show up in it, and it is shared with the engine
// until then, so read it, clone it to sort it, do not assign to its
// elements. The outer slice is scratch the next Queues call overwrites.
func (e *Env) Queues() []Queue {
	s := e.s
	// A hidden job has an entry in the backoff heap until the tick it
	// becomes eligible, so with the heap empty every queue is lent as it is.
	hiding := len(s.backoff) > 0
	out := s.queues[:0]
	for i := range s.waiting {
		q := &s.waiting[i]
		if len(q.jobs) == 0 {
			continue
		}
		jobs := q.view()
		if hiding {
			if jobs = s.onlyVisible(jobs); len(jobs) == 0 {
				continue
			}
		}
		out = append(out, Queue{VC: q.vc, Pos: i, Jobs: jobs})
	}
	s.queues = out
	return out
}

// onlyVisible returns jobs itself when nobody in it is hidden, else a copy
// without the hidden ones.
func (s *Sim) onlyVisible(jobs []*job.Job) []*job.Job {
	k := slices.IndexFunc(jobs, func(j *job.Job) bool { return !s.visible(j) })
	if k < 0 {
		return jobs
	}
	out := append(make([]*job.Job, 0, len(jobs)-1), jobs[:k]...)
	for _, j := range jobs[k+1:] {
		if s.visible(j) {
			out = append(out, j)
		}
	}
	return out
}
