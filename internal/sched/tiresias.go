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
	// thresholds are the discretization boundaries; attained service below
	// thresholds[i] lands in queue i.
	thresholds []float64
	// promoteSec starves-proofs long jobs: a job waiting longer than this is
	// promoted to the top queue (Tiresias's PROMOTE knob).
	promoteSec int64

	startedAt map[int]int64
	stoppedAt map[int]int64

	// Scratch for one round, not state: one VC's ranked candidates, each
	// visible queue's running jobs, and the queue of each VC position (-1 for
	// none).
	cands   []lasCand
	running [][]*job.Job
	queueAt []int
}

// lasCand is a Tiresias candidate with its LAS queue, computed once per
// round, and whether it made the round's desired set.
type lasCand struct {
	ranked
	queue   int
	desired bool
}

// Each preemption costs preemptOverheadSec (the overhead §4.8 cites), and a
// job (re)started less than minRunQuantumSec ago is not preempted: Tiresias
// schedules in coarse rounds, so victims always get a useful quantum.
const preemptOverheadSec, minRunQuantumSec = 62, 120

// NewTiresias returns the policy with defaults in the range Gu et al.
// explore: two queues split at 1 GPU-hour of attained service, and a day's
// wait before PROMOTE.
func NewTiresias() *Tiresias {
	return &Tiresias{
		thresholds: []float64{3600},
		promoteSec: 24 * 3600,
		startedAt:  map[int]int64{},
		stoppedAt:  map[int]int64{},
	}
}

// Name implements sim.Scheduler.
func (*Tiresias) Name() string { return "Tiresias" }

// queueOf discretizes attained service.
func (t *Tiresias) queueOf(j *job.Job, now int64) int {
	// PROMOTE: a starved waiting job — never started, or evicted long ago —
	// is lifted back to the top queue (Tiresias's anti-starvation knob).
	if j.State != job.Running {
		if j.FirstStart < 0 && now-j.Submit > t.promoteSec {
			return 0
		}
		if stopped, ok := t.stoppedAt[j.ID]; ok && now-stopped > t.promoteSec {
			return 0
		}
	}
	for i, thr := range t.thresholds {
		if j.AttainedGPUT < thr {
			return i
		}
	}
	return len(t.thresholds)
}

// Tick recomputes the desired running set per VC and preempts/starts to
// realize it.
//
// Only VCs with a visible waiting job are looked at. In any other VC no
// waiting job is desired, so the preemption bar stays above every queue and
// nothing starts: the round would change nothing there. It is the per-VC
// form of NextWake's "no waiting jobs, no wake".
func (t *Tiresias) Tick(env *sim.Env) {
	queues := env.Queues() // VCs in name order
	if len(queues) == 0 {
		return
	}
	now := env.Now()
	t.group(queues, env.Running())
	cl := env.Cluster()

	for k, q := range queues {
		// Candidates: the queue, then the running jobs, each ranked by
		// (queue, submit) once.
		cands := t.cands[:0]
		for _, jobs := range [2][]*job.Job{q.Jobs, t.running[k]} {
			for _, j := range jobs {
				lq := t.queueOf(j, now)
				cands = append(cands, lasCand{ranked: ranked{j, float64(lq)*1e12 + float64(j.Submit)}, queue: lq})
			}
		}
		slices.SortStableFunc(cands, func(a, b lasCand) int { return cmpRanked(a.ranked, b.ranked) })
		t.cands = cands

		// Capacity-greedy desired set.
		capacity := vcGPUs(cl, q.VC)
		for i := range cands {
			if c := &cands[i]; c.j.GPUs <= capacity {
				c.desired = true
				capacity -= c.j.GPUs
			}
		}

		// The LAS preemption invariant: a running job is only evicted for
		// jobs from a strictly higher-priority queue — same-queue arrivals
		// wait (FIFO within a queue), which is what keeps Tiresias from
		// thrashing.
		minUnplaced := 1 << 30
		for _, c := range cands {
			if c.desired && c.j.State != job.Running && c.queue < minUnplaced {
				minUnplaced = c.queue
			}
		}
		for _, c := range cands {
			j := c.j
			if j.State == job.Running && !c.desired {
				if c.queue <= minUnplaced {
					continue
				}
				if started, ok := t.startedAt[j.ID]; ok && now-started < minRunQuantumSec {
					continue
				}
				if env.Preempt(j, preemptOverheadSec) {
					t.stoppedAt[j.ID] = now
				}
			}
		}
		// Start desired waiting jobs in priority order (placement may still
		// fail on fragmentation; those wait for the next round).
		for _, c := range cands {
			if c.j.State != job.Running && c.desired {
				if env.StartExclusive(c.j) {
					t.startedAt[c.j.ID] = now
				}
			}
		}
	}
}

// group puts each VC's running jobs, in id order, beside its queue, finding
// the queue by the job's VC position. queues is Env.Queues' non-empty list.
func (t *Tiresias) group(queues []sim.Queue, running []*job.Job) {
	t.running = slices.Grow(t.running[:0], len(queues))[:len(queues)]
	for k := range t.running {
		t.running[k] = t.running[k][:0]
	}
	n := queues[len(queues)-1].Pos + 1 // queues are in position order
	t.queueAt = slices.Grow(t.queueAt[:0], n)[:n]
	for p := range t.queueAt {
		t.queueAt[p] = -1
	}
	for k, q := range queues {
		t.queueAt[q.Pos] = k
	}
	for _, j := range running {
		if p := int(j.VCPos); p < n {
			if k := t.queueAt[p]; k >= 0 {
				t.running[k] = append(t.running[k], j)
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
