package sched

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// Tiresias (Gu et al., NSDI '19 — §4.1 baseline 5) is the paper's strongest
// intrusive baseline: two-dimensional discretized Least-Attained-Service.
// Jobs are binned into priority queues by attained GPU-time; within a queue
// the order is FIFO (runtime-agnostic, as §4.8 points out). It is
// preemptive: a higher-priority waiting job evicts lower-priority running
// jobs, each preemption costing the checkpoint-restore overhead the paper
// measures at 62 s.
type Tiresias struct {
	// QueueThresholdsGPUSec are the discretization boundaries; attained
	// service below thresholds[i] lands in queue i.
	QueueThresholdsGPUSec []float64
	// PreemptOverheadSec is charged per preemption.
	PreemptOverheadSec float64
	// PromoteIntervalSec starves-proofs long jobs: a job waiting longer than
	// this is promoted to the top queue (Tiresias's PROMOTE knob).
	PromoteIntervalSec int64
	// MinRunQuantumSec protects a freshly (re)started job from immediate
	// re-preemption — Tiresias schedules in coarse rounds, so victims always
	// get a useful quantum.
	MinRunQuantumSec float64

	startedAt map[int]int64
	stoppedAt map[int]int64
}

// NewTiresias returns the policy with defaults in the range Gu et al.
// explore: two queues split at 1 GPU-hour of attained service, 62 s
// preemption cost (the per-preemption overhead §4.8 cites).
func NewTiresias() *Tiresias {
	return &Tiresias{
		QueueThresholdsGPUSec: []float64{3600},
		PreemptOverheadSec:    62,
		PromoteIntervalSec:    24 * 3600,
		MinRunQuantumSec:      120,
		startedAt:             map[int]int64{},
		stoppedAt:             map[int]int64{},
	}
}

// Name implements sim.Scheduler.
func (*Tiresias) Name() string { return "Tiresias" }

// queueOf discretizes attained service.
func (t *Tiresias) queueOf(j *job.Job, now int64) int {
	// PROMOTE: a starved waiting job — never started, or evicted long ago —
	// is lifted back to the top queue (Tiresias's anti-starvation knob).
	if j.State != job.Running {
		if j.FirstStart < 0 && now-j.Submit > t.PromoteIntervalSec {
			return 0
		}
		if stopped, ok := t.stoppedAt[j.ID]; ok && now-stopped > t.PromoteIntervalSec {
			return 0
		}
	}
	for i, thr := range t.QueueThresholdsGPUSec {
		if j.AttainedGPUT < thr {
			return i
		}
	}
	return len(t.QueueThresholdsGPUSec)
}

// Tick recomputes the desired running set per VC and preempts/starts to
// realize it.
func (t *Tiresias) Tick(env *sim.Env) {
	now := env.Now()
	// Each VC's candidates: its queue, then its running jobs.
	groups := byVC(env.Running())
	for _, q := range env.Queues() {
		groups[q.VC] = append(slices.Clone(q.Jobs), groups[q.VC]...)
	}
	cl := env.Cluster()

	for _, vc := range sortedVCs(groups) {
		jobs := groups[vc]
		// Priority order: (queue, submit).
		stableSortBy(jobs, func(j *job.Job) float64 {
			return float64(t.queueOf(j, now))*1e12 + float64(j.Submit)
		})

		// Capacity-greedy desired set.
		capacity := vcGPUs(cl, vc)
		desired := map[int]bool{}
		for _, j := range jobs {
			if j.GPUs <= capacity {
				desired[j.ID] = true
				capacity -= j.GPUs
			}
		}

		// The LAS preemption invariant: a running job is only evicted for
		// jobs from a strictly higher-priority queue — same-queue arrivals
		// wait (FIFO within a queue), which is what keeps Tiresias from
		// thrashing.
		minUnplaced := 1 << 30
		for _, j := range jobs {
			if desired[j.ID] && j.State != job.Running {
				if q := t.queueOf(j, now); q < minUnplaced {
					minUnplaced = q
				}
			}
		}
		for _, j := range jobs {
			if j.State == job.Running && !desired[j.ID] {
				if t.queueOf(j, now) <= minUnplaced {
					continue
				}
				if started, ok := t.startedAt[j.ID]; ok && float64(now-started) < t.MinRunQuantumSec {
					continue
				}
				if env.Preempt(j, t.PreemptOverheadSec) {
					t.stoppedAt[j.ID] = now
				}
			}
		}
		// Start desired waiting jobs in priority order (placement may still
		// fail on fragmentation; those wait for the next round).
		for _, j := range jobs {
			if j.State != job.Running && desired[j.ID] {
				if env.StartExclusive(j) {
					t.startedAt[j.ID] = now
				}
			}
		}
	}
}

// vcGPUs counts the total GPUs a VC owns.
func vcGPUs(cl *cluster.Cluster, vc string) int {
	spec := cl.Spec()
	for _, v := range spec.VCs {
		if v.Name == vc {
			return v.Nodes * spec.GPUsPerNode
		}
	}
	return 0
}
