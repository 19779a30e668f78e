package sim

import (
	"fmt"

	"repro/internal/job"
)

// InvariantChecker machine-checks the engine's physical invariants after
// every tick (enable via Options.Invariants):
//
//   - per-GPU capacity: at most two jobs per GPU and reserved memory within
//     device capacity (the substrate half, cluster.Audit);
//   - allocation consistency: the running/profiling sets, job states, and
//     cluster allocation records agree in both directions — a resident set's
//     members are exactly the jobs in its State;
//   - resident order: each resident set is strictly ascending by job ID (the
//     order every engine loop and Env view relies on instead of sorting), one
//     placement record per member;
//   - speeds: every running job's recorded speed equals the one computed
//     from scratch out of the cluster's current allocation — the engine
//     recomputes a speed only where it was told the colocation changed, and
//     this is what notices a change nobody told it about;
//   - the waiting set: its members are exactly the submitted Pending and
//     Queued jobs, each in its own VC's queue, ascending by trace index;
//   - the partner index, once built: each (VC, GPUs) set is exactly the
//     running set filtered by that VC and demand, ascending by ID;
//   - causality: no job runs before its submission or after its retirement,
//     and retired jobs hold no GPUs;
//   - non-intrusiveness: a job leaving the profiler restarts from zero
//     progress (checked at the StopProfiling transition).
//
// With fatal set, the first violation panics — the property tests run this
// way so a broken engine fails loudly. Otherwise violations are counted and
// sampled onto Result.Violations / Result.ViolationSamples.
type InvariantChecker struct {
	// fatal panics on the first violation (tests).
	fatal bool

	count   int
	samples []string
}

// NewInvariantChecker returns a checker; fatal selects panic-on-violation.
func NewInvariantChecker(fatal bool) *InvariantChecker {
	return &InvariantChecker{fatal: fatal}
}

// Count returns the number of violations observed so far.
func (c *InvariantChecker) Count() int { return c.count }

// maxSamples bounds the retained violation descriptions.
const maxSamples = 8

// Samples returns up to maxSamples violation descriptions.
func (c *InvariantChecker) Samples() []string {
	return append([]string(nil), c.samples...)
}

func (c *InvariantChecker) violate(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if c.fatal {
		panic("sim: invariant violation: " + msg)
	}
	c.count++
	if len(c.samples) < maxSamples {
		c.samples = append(c.samples, msg)
	}
}

// checkInvariants validates the whole engine state against the checker.
// Called once per tick when Options.Invariants is set; never on the
// default path.
func (s *Sim) checkInvariants() {
	c := s.opts.Invariants
	if c == nil {
		return
	}
	for _, v := range s.main.Audit() {
		c.violate("tick %d: main cluster: %s", s.now, v)
	}
	if s.profiler != nil {
		for _, v := range s.profiler.Audit() {
			c.violate("tick %d: profiler cluster: %s", s.now, v)
		}
	}

	s.checkAscending(&s.running, "running")
	s.checkAscending(&s.profiling, "profiling")
	s.checkWaiting()
	s.checkPeers()

	for i, j := range s.running.jobs {
		id := j.ID
		p := s.running.recs[i]
		if j.State != job.Running {
			c.violate("tick %d: job %d in running set with state %v", s.now, id, j.State)
		}
		if !s.main.Allocated(id) {
			c.violate("tick %d: job %d running without a main-cluster allocation", s.now, id)
		} else {
			want := j.GPUs
			if p.elastic > 0 {
				want = p.elastic
			}
			if got := len(s.main.GPUsOf(id)); got != want {
				c.violate("tick %d: job %d holds %d GPUs, expected %d", s.now, id, got, want)
			}
			// A stale record is waiting for the end of the tick; any other
			// must already hold what a full recomputation would give it.
			if sp := s.speedOf(j, s.stragglerFactor(s.main.GPUsOf(id)), p.elastic); !p.stale && p.speed != sp {
				c.violate("tick %d: job %d recorded at speed %v, its placement gives %v",
					s.now, id, p.speed, sp)
			}
		}
		if j.Submit > s.now {
			c.violate("tick %d: job %d runs before its submission at %d", s.now, id, j.Submit)
		}
		if j.FirstStart >= 0 && j.FirstStart < j.Submit {
			c.violate("tick %d: job %d first start %d precedes submission %d",
				s.now, id, j.FirstStart, j.Submit)
		}
		if j.Finish >= 0 {
			c.violate("tick %d: job %d runs after its retirement at %d", s.now, id, j.Finish)
		}
		if s.profiling.has(id) {
			c.violate("tick %d: job %d on both clusters at once", s.now, id)
		}
	}

	for _, j := range s.profiling.jobs {
		id := j.ID
		if j.State != job.Profiling {
			c.violate("tick %d: job %d in profiling set with state %v", s.now, id, j.State)
		}
		if s.profiler == nil || !s.profiler.Allocated(id) {
			c.violate("tick %d: job %d profiling without a profiler allocation", s.now, id)
		}
		if s.main.Allocated(id) {
			c.violate("tick %d: profiling job %d also holds main-cluster GPUs", s.now, id)
		}
		if j.Submit > s.now {
			c.violate("tick %d: job %d profiles before its submission at %d", s.now, id, j.Submit)
		}
	}

	for i, j := range s.jobs {
		// The engine finds a job's queue, and Env tells its own copies from
		// others, by these two fields alone.
		if int(j.Slot) != i || int(j.VCPos) != s.vcPos[j.VC] {
			c.violate("tick %d: job %d at index %d carries slot %d and VC position %d, want %d",
				s.now, j.ID, i, j.Slot, j.VCPos, s.vcPos[j.VC])
		}
		if i >= s.arriveIdx {
			// Not yet submitted: the scheduler must never have touched it.
			if j.State != job.Pending || j.FirstStart >= 0 || s.main.Allocated(j.ID) {
				c.violate("tick %d: job %d touched before submission (state %v)",
					s.now, j.ID, j.State)
			}
			continue
		}
		switch j.State {
		case job.Running:
			if !s.running.has(j.ID) {
				c.violate("tick %d: job %d state Running but not in the running set", s.now, j.ID)
			}
		case job.Profiling:
			if !s.profiling.has(j.ID) {
				c.violate("tick %d: job %d state Profiling but not in the profiling set", s.now, j.ID)
			}
		case job.Finished:
			if s.main.Allocated(j.ID) || (s.profiler != nil && s.profiler.Allocated(j.ID)) {
				c.violate("tick %d: retired job %d still holds GPUs", s.now, j.ID)
			}
			if j.Finish < j.Submit {
				c.violate("tick %d: job %d finished at %d before submission %d",
					s.now, j.ID, j.Finish, j.Submit)
			}
			if j.RemainingWork != 0 {
				c.violate("tick %d: retired job %d has %.1f s of work left",
					s.now, j.ID, j.RemainingWork)
			}
		case job.Failed:
			// Retries exhausted (fault injection): terminal, so it must hold
			// no GPUs and must actually have been killed at least once.
			if s.main.Allocated(j.ID) || (s.profiler != nil && s.profiler.Allocated(j.ID)) {
				c.violate("tick %d: failed job %d still holds GPUs", s.now, j.ID)
			}
			if j.Restarts == 0 {
				c.violate("tick %d: job %d marked Failed without any fault kill", s.now, j.ID)
			}
			if j.Finish >= 0 {
				c.violate("tick %d: job %d both Failed and finished at %d", s.now, j.ID, j.Finish)
			}
		default: // Pending, Queued
			if q := &s.waiting[s.vcPos[j.VC]]; !q.has(int32(i)) {
				c.violate("tick %d: job %d state %v but not in the waiting set", s.now, j.ID, j.State)
			}
			if s.main.Allocated(j.ID) {
				c.violate("tick %d: job %d state %v but holds main-cluster GPUs",
					s.now, j.ID, j.State)
			}
			// Non-intrusiveness: a Queued job has either never run on the
			// main cluster or was returned by the profiler — either way no
			// checkpoint exists, so its remaining work must be the full
			// duration. The two legal progress-preserving paths both leave a
			// marker: preemption parks jobs with ColdStart > 0, and a
			// fault-kill restore keeps CheckpointedWork > 0.
			if j.State == job.Queued && j.ColdStart == 0 && j.CheckpointedWork == 0 &&
				j.RemainingWork != float64(j.Duration) {
				c.violate("tick %d: queued job %d kept %.1f s of progress across a restart",
					s.now, j.ID, float64(j.Duration)-j.RemainingWork)
			}
		}
	}
}

// checkAscending validates a resident set's structural order. Strictly
// ascending also means duplicate-free, and it is what makes has (a binary
// search) a sound membership test for the checks that follow.
func (s *Sim) checkAscending(set *residents, name string) {
	for i := 1; i < len(set.jobs); i++ {
		if set.jobs[i-1].ID >= set.jobs[i].ID {
			s.opts.Invariants.violate("tick %d: %s set out of ID order at %d: job %d before job %d",
				s.now, name, i, set.jobs[i-1].ID, set.jobs[i].ID)
		}
	}
}

// checkPeers validates the partner index against the running set it cuts:
// every member of a set is a running job of that VC and demand, in ID order,
// and the sets together hold as many jobs as are running — so none is
// missing.
func (s *Sim) checkPeers() {
	if s.peers == nil {
		return
	}
	c := s.opts.Invariants
	n := 0
	for vc, sets := range s.peers {
		for _, set := range sets {
			n += len(set.jobs)
			for k, j := range set.jobs {
				switch {
				case k > 0 && set.jobs[k-1].ID >= j.ID:
					c.violate("tick %d: partner set %s/%d out of ID order at %d", s.now, s.waiting[vc].vc, set.gpus, k)
				case j.VC != s.waiting[vc].vc || j.GPUs != set.gpus:
					c.violate("tick %d: partner set %s/%d holds job %d of %s/%d",
						s.now, s.waiting[vc].vc, set.gpus, j.ID, j.VC, j.GPUs)
				case !s.running.has(j.ID):
					c.violate("tick %d: partner set %s/%d holds job %d, which is not running",
						s.now, s.waiting[vc].vc, set.gpus, j.ID)
				}
			}
		}
	}
	if n != len(s.running.jobs) {
		c.violate("tick %d: partner index holds %d jobs, %d are running", s.now, n, len(s.running.jobs))
	}
}

// checkWaiting validates the per-VC queues from their own side: every member
// is a submitted job of that VC in a waiting State, at the position its trace
// index gives it. (checkInvariants' walk over all jobs checks the other
// direction: every such job is a member.)
func (s *Sim) checkWaiting() {
	c := s.opts.Invariants
	for qi := range s.waiting {
		q := &s.waiting[qi]
		for k, i := range q.idx {
			j := q.jobs[k]
			switch {
			case k > 0 && q.idx[k-1] >= i:
				c.violate("tick %d: queue %s out of trace order at %d: index %d before %d",
					s.now, q.vc, k, q.idx[k-1], i)
			case int(i) >= s.arriveIdx || s.jobs[i] != j:
				c.violate("tick %d: queue %s holds job %d under trace index %d", s.now, q.vc, j.ID, i)
			case j.VC != q.vc:
				c.violate("tick %d: queue %s holds job %d of VC %s", s.now, q.vc, j.ID, j.VC)
			case j.State != job.Pending && j.State != job.Queued:
				c.violate("tick %d: job %d in the waiting set with state %v", s.now, j.ID, j.State)
			}
		}
	}
}
