package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/job"
)

// Result aggregates one simulation run — the raw material for Tables 3–6 and
// Figures 8, 9, 11, 12 and 14a.
type Result struct {
	Scheduler string
	Jobs      []*job.Job

	AvgJCTSec     float64
	AvgQueueSec   float64
	P999QueueSec  float64
	MakespanSec   int64
	AvgGPUUtilPct float64
	AvgGPUMemPct  float64
	Unfinished    int

	// SharedStarts counts packed placements; AvgSharedGPUs is the mean
	// number of GPUs hosting two jobs at sampling instants.
	SharedStarts  int
	AvgSharedGPUs float64

	// PerVCQueueSec is the average queuing delay per VC (Figure 9).
	PerVCQueueSec map[string]float64

	// Violations counts engine-invariant violations observed during the run
	// (only when Options.Invariants is set and non-fatal);
	// ViolationSamples holds the first few descriptions.
	Violations       int
	ViolationSamples []string

	// Fault-injection outcome (all zero when Options.Chaos is nil).
	// FailedJobs counts jobs that exhausted their retry budget (terminal,
	// distinct from Unfinished: the cluster gave up, not the clock).
	FailedJobs   int
	NodeFailures int
	GPUFailures  int
	JobKills     int
	Requeues     int
}

func (s *Sim) collect() *Result {
	r := &Result{Scheduler: s.sched.Name(), Jobs: s.jobs, PerVCQueueSec: map[string]float64{}}
	var jctSum, queueSum float64
	var finished int
	var queues []float64
	vcSum := map[string]float64{}
	vcN := map[string]int{}
	var maxFinish int64
	var minSubmit int64 = math.MaxInt64

	for _, j := range s.jobs {
		if j.Submit < minSubmit {
			minSubmit = j.Submit
		}
		if j.State == job.Failed {
			r.FailedJobs++
			continue
		}
		if j.Finish < 0 {
			r.Unfinished++
			continue
		}
		finished++
		jctSum += float64(j.JCT())
		q := float64(j.QueueDelay())
		queueSum += q
		queues = append(queues, q)
		vcSum[j.VC] += q
		vcN[j.VC]++
		if j.Finish > maxFinish {
			maxFinish = j.Finish
		}
	}
	if finished > 0 {
		r.AvgJCTSec = jctSum / float64(finished)
		r.AvgQueueSec = queueSum / float64(finished)
		r.P999QueueSec = Percentile(queues, 0.999)
		r.MakespanSec = maxFinish - minSubmit
	}
	for vc, sum := range vcSum {
		r.PerVCQueueSec[vc] = sum / float64(vcN[vc])
	}
	if s.utilSamples > 0 {
		r.AvgGPUUtilPct = s.utilSum / float64(s.utilSamples)
		r.AvgGPUMemPct = s.memSum / float64(s.utilSamples)
		r.AvgSharedGPUs = s.sharedGPUSum / float64(s.utilSamples)
	}
	r.SharedStarts = s.sharedStarts
	if c := s.opts.Invariants; c != nil {
		r.Violations = c.Count()
		r.ViolationSamples = c.Samples()
	}
	r.NodeFailures = s.nodeFailures
	r.GPUFailures = s.gpuFailures
	r.JobKills = s.jobKills
	r.Requeues = s.requeues
	return r
}

// GoodputPct is the fraction of charged GPU-time that produced completed
// work: Σ over finished jobs of (Duration × GPUs) divided by Σ over all
// jobs of AttainedGPUT. Kills, requeues, restart-from-zero reruns, restore
// overheads and packing slowdowns all charge GPU-time without (fully)
// completing work, so this is the failure-sweep's degradation metric.
// Returns 100 when nothing was charged.
func (r *Result) GoodputPct() float64 {
	var useful, charged float64
	for _, j := range r.Jobs {
		charged += j.AttainedGPUT
		if j.Finish >= 0 {
			useful += float64(j.Duration) * float64(j.GPUs)
		}
	}
	if charged <= 0 {
		return 100
	}
	pct := useful / charged * 100
	if pct > 100 {
		pct = 100
	}
	return pct
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by ceil-based
// nearest-rank on a sorted copy: the smallest value with at least p·n of the
// sample at or below it. Returns 0 for empty input.
//
// The previous truncating index, int(p·(n−1)), rounded the rank DOWN — on
// fewer than 1000 samples P999QueueSec silently degraded to ~p99 or lower
// (100 samples: index 98.9 → 98, the 99th-smallest value instead of the
// maximum the tail percentile must report).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted)))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// JCTs returns finished jobs' completion times in seconds (for CDFs).
func (r *Result) JCTs() []float64 {
	var out []float64
	for _, j := range r.Jobs {
		if j.Finish >= 0 {
			out = append(out, float64(j.JCT()))
		}
	}
	return out
}

// AvgJCTHours is the Table 4 unit.
func (r *Result) AvgJCTHours() float64 { return r.AvgJCTSec / 3600 }

// AvgQueueHours is the Table 4 unit.
func (r *Result) AvgQueueHours() float64 { return r.AvgQueueSec / 3600 }

// P999QueueHours is the Table 4 unit.
func (r *Result) P999QueueHours() float64 { return r.P999QueueSec / 3600 }

// MakespanHours is the Table 3 unit.
func (r *Result) MakespanHours() float64 { return float64(r.MakespanSec) / 3600 }

// ScaleStats splits finished jobs at the §4.3 boundary (Table 5): large
// (>8 GPUs) vs small (≤8), returning (avg JCT, avg queue) in seconds for
// each.
func (r *Result) ScaleStats() (largeJCT, largeQueue, smallJCT, smallQueue float64) {
	var lj, lq, sj, sq float64
	var ln, sn int
	for _, j := range r.Jobs {
		if j.Finish < 0 {
			continue
		}
		if j.GPUs > 8 {
			lj += float64(j.JCT())
			lq += float64(j.QueueDelay())
			ln++
		} else {
			sj += float64(j.JCT())
			sq += float64(j.QueueDelay())
			sn++
		}
	}
	if ln > 0 {
		largeJCT, largeQueue = lj/float64(ln), lq/float64(ln)
	}
	if sn > 0 {
		smallJCT, smallQueue = sj/float64(sn), sq/float64(sn)
	}
	return largeJCT, largeQueue, smallJCT, smallQueue
}

// ShortJobQueuedCount counts finished short jobs (duration ≤ cutoff) that
// waited longer than their own duration — the paper's "queuing short-term
// jobs" debugging-feedback metric (§4.3).
func (r *Result) ShortJobQueuedCount(cutoffSec int64) int {
	n := 0
	for _, j := range r.Jobs {
		if j.Finish < 0 || j.Duration > cutoffSec {
			continue
		}
		if j.QueueDelay() > j.Duration {
			n++
		}
	}
	return n
}

// Summary renders a one-line human-readable digest.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s avgJCT=%7.2fh avgQueue=%7.2fh p99.9Queue=%8.2fh makespan=%7.2fh util=%4.1f%% mem=%4.1f%% shared=%d",
		r.Scheduler, r.AvgJCTHours(), r.AvgQueueHours(), r.P999QueueHours(), r.MakespanHours(), r.AvgGPUUtilPct, r.AvgGPUMemPct, r.SharedStarts)
	if r.Unfinished > 0 {
		fmt.Fprintf(&sb, " UNFINISHED=%d", r.Unfinished)
	}
	if r.Violations > 0 {
		fmt.Fprintf(&sb, " VIOLATIONS=%d", r.Violations)
	}
	// Chaos block only when faults actually fired, so fault-free summaries
	// are byte-identical to the pre-chaos format.
	if r.JobKills > 0 || r.NodeFailures > 0 || r.FailedJobs > 0 {
		fmt.Fprintf(&sb, " goodput=%.1f%% kills=%d requeues=%d nodefail=%d gpufail=%d",
			r.GoodputPct(), r.JobKills, r.Requeues, r.NodeFailures, r.GPUFailures)
		if r.FailedJobs > 0 {
			fmt.Fprintf(&sb, " FAILED=%d", r.FailedJobs)
		}
	}
	return sb.String()
}
