package sim

import (
	"sort"

	"repro/internal/dtrace"
	"repro/internal/job"
)

// Fault application: the engine half of internal/chaos. The injector decides
// *which* faults fire each tick (deterministically, from its seed and the
// nodes this run has down); this file owns *what they mean* — the repair
// clock, revoking node capacity, killing resident jobs, and the recovery
// path: checkpoint-vs-restart-from-zero semantics, retry budgets, and
// exponential-backoff requeue.
//
// Everything here is a no-op when Options.Chaos is nil; the tick loop pays a
// single nil check.

// applyChaos runs once per tick, after progress integration and before
// arrivals and the scheduler — so the scheduler always observes the
// post-fault cluster. Ordering within the tick is fixed (repairs, node
// crashes, GPU faults, job crashes, each in ascending entity order) so the
// event stream is identical across same-seed runs.
func (s *Sim) applyChaos() {
	inj := s.faults
	if inj == nil {
		return
	}
	now, dt := s.now, s.opts.Tick

	// Repairs first: a node that crashed RepairSec ago returns to service
	// this tick and is immediately eligible for placement.
	var repaired []int
	for n, at := range s.repairAt {
		if at <= now {
			repaired = append(repaired, n)
		}
	}
	sort.Ints(repaired)
	for _, n := range repaired {
		delete(s.repairAt, n)
		s.main.RepairNode(n)
		s.chaosNodeEvent(dtrace.ActNodeRepair, "repair-window-elapsed", n)
		s.dirty = true
	}

	// Node crashes: capacity revoked for the repair window, every resident
	// job killed. Distributed jobs touching the node die with it (their
	// allocations on other nodes are freed by killJob).
	for _, n := range inj.NodeCrashes(now, dt, s.main.NodeDown) {
		s.repairAt[n] = now + s.opts.Chaos.RepairSec
		victims := s.main.FailNode(n)
		s.nodeFailures++
		s.chaosNodeEvent(dtrace.ActNodeFail, "node-crash", n)
		for _, id := range victims {
			s.killJob(s.jobs[s.idxOf[id]], "node-crash")
		}
		s.dirty = true
	}

	// Transient GPU faults on the nodes still up: residents killed, no
	// capacity revoked. Faults on idle GPUs have no observable effect and
	// are not counted, keeping the stats meaningful.
	for _, g := range inj.GPUFailures(now, dt, s.main.NodeDown) {
		victims := s.main.JobsOnGPU(g)
		if len(victims) == 0 {
			continue
		}
		s.gpuFailures++
		s.chaosNodeEvent(dtrace.ActGPUFail, "gpu-fault", g.Node)
		for _, id := range victims {
			// A node crash above may already have killed a co-resident.
			if j := s.jobs[s.idxOf[id]]; j.State == job.Running {
				s.killJob(j, "gpu-fault")
			}
		}
		s.dirty = true
	}

	// Job crash-on-step: sampled over running and profiling jobs in ID
	// order. Each (job, tick) trial is an independent hash, so the sample
	// does not depend on which other jobs exist.
	if len(s.running.jobs)+len(s.profiling.jobs) > 0 {
		for _, id := range inj.JobCrashes(now, dt, s.residentIDs()) {
			s.killJob(s.jobs[s.idxOf[id]], "job-crash")
		}
	}
}

// killJob removes a running or profiling job from its cluster and applies
// recovery semantics:
//
//   - out of retries → Failed, terminal;
//   - a durable checkpoint exists (intrusive Preempt wrote one) → resume
//     from it, paying the restore cold-start;
//   - no checkpoint → restart from zero with ColdStart voided. This is the
//     non-intrusive rule: Lucid never forced a checkpoint on the job, so
//     there is nothing to restore — charging a restore overhead here would
//     be the same phantom-debt bug StopProfiling fixes for the profiler
//     path.
//
// Requeued jobs are hidden from Env.Queues until an exponential backoff
// elapses. AttainedGPUT and RunTime are deliberately untouched: the cluster
// really did spend that GPU-time, which is exactly what the goodput metric
// measures.
func (s *Sim) killJob(j *job.Job, cause string) {
	if j == nil || !s.evict(j) {
		return
	}
	s.jobKills++

	spec := s.opts.Chaos
	j.Restarts++
	if spec.MaxRetries >= 0 && j.Restarts > spec.MaxRetries {
		j.State = job.Failed
		j.RemainingWork = 0
		j.ColdStart = 0
		s.exhausted++
		s.finished++ // terminal: leaves the system, like Finished
		s.trace(dtrace.ActExhaust, j, cause, 0)
		return
	}

	if j.CheckpointedWork > 0 {
		j.RemainingWork = float64(j.Duration) - j.CheckpointedWork
		j.ColdStart = spec.RestoreSec
		s.trace(dtrace.ActRequeue, j, cause+"/restore-checkpoint", 0)
	} else {
		j.RemainingWork = float64(j.Duration)
		j.ColdStart = 0
		s.trace(dtrace.ActRequeue, j, cause+"/restart-from-zero", 0)
	}
	if j.Profiled {
		j.State = job.Queued
	} else {
		j.State = job.Pending
	}
	s.enqueue(j)
	j.NextEligible = s.now + spec.Backoff(j.Restarts)
	s.pushBackoff(j)
	s.requeues++
}

// chaosNodeEvent records a node-level fault event (no subject job). Node ids
// are 1-based on the wire so node 0 survives omitempty.
func (s *Sim) chaosNodeEvent(act dtrace.Action, reason string, node int) {
	rec := s.opts.DecisionTrace
	if rec == nil {
		return
	}
	rec.Record(dtrace.Event{Tick: s.now, Action: act, Reason: reason, Node: node + 1})
}
