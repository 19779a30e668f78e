// Package job defines the deep-learning training job model shared by the
// trace generators, the cluster simulator and every scheduler. A job carries
// two kinds of information:
//
//   - what a scheduler may observe non-intrusively: submission metadata
//     (name, user, VC, GPU demand, submit time) and — after Lucid's profiler
//     has run it briefly — the measured resource profile;
//   - ground truth the simulator alone uses to advance execution: the true
//     exclusive-execution duration and the underlying workload configuration
//     that drives the interference model.
//
// Baseline schedulers that "cheat" (SJF is explicitly an impractical oracle
// in the paper) read the ground-truth fields; honest schedulers must not.
package job

import "repro/internal/workload"

// State is a job's lifecycle position.
type State int

const (
	// Pending: submitted, not yet running anywhere.
	Pending State = iota
	// Profiling: running on the profiling cluster (Lucid only).
	Profiling
	// Queued: profiled (or profiling skipped) and waiting for the main
	// cluster.
	Queued
	// Running: executing on the main cluster.
	Running
	// Finished: completed.
	Finished
	// Failed: killed by fault injection and out of retries — terminal, never
	// rescheduled. (Appended after Finished so existing state values are
	// unchanged.)
	Failed
)

// Terminal reports whether the job has left the system for good.
func (s State) Terminal() bool { return s == Finished || s == Failed }

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "Pending"
	case Profiling:
		return "Profiling"
	case Queued:
		return "Queued"
	case Running:
		return "Running"
	case Finished:
		return "Finished"
	case Failed:
		return "Failed"
	default:
		return "Unknown"
	}
}

// Job is one DL training job.
type Job struct {
	ID     int
	Name   string // job name; recurring jobs reuse names with small edits
	User   string
	VC     string
	GPUs   int   // GPU demand
	Submit int64 // submission time, seconds since trace start

	// AMP is user-declared (§3.5.1 lists mixed-precision as an optional
	// job-submission flag), so schedulers may read it pre-profiling.
	AMP bool

	// VCPos and Slot are a simulation's own: sim.New sets them on its copy
	// of the job to the VC's position among the trace's VCs in name order
	// and to the job's index in the trace. On any other copy they mean
	// nothing. They sit in AMP's padding, so a Job stays 240 bytes.
	VCPos uint16
	Slot  uint32

	// Ground truth — simulator only.
	Duration int64           // exclusive-execution duration in seconds
	Config   workload.Config // drives the interference model

	Runtime
}

// Runtime is the state the simulator maintains for a job during a run —
// everything that a simulator snapshot saves per job. The JSON tags are the
// snapshot format.
type Runtime struct {
	State         State   `json:"state"`
	RemainingWork float64 `json:"rem"`                   // seconds of exclusive-speed execution left
	FirstStart    int64   `json:"first_start"`           // first time the job ran anywhere (-1 = never)
	Finish        int64   `json:"finish"`                // completion time (-1 = not finished)
	RunTime       float64 `json:"run_time"`              // accumulated wall-clock seconds spent running
	Preemptions   int     `json:"preemptions,omitempty"` // times the job was preempted (Tiresias)
	ColdStart     float64 `json:"cold_start,omitempty"`  // seconds of no-progress overhead pending at next start
	AttainedGPUT  float64 `json:"attained_gput"`         // attained GPU-time service (for LAS schedulers)

	// Observable after profiling (or measured on the fly for jobs that skip
	// profiling).
	Profiled bool             `json:"profiled,omitempty"`
	Profile  workload.Profile `json:"profile"`

	// Fault-injection accounting (internal/chaos).
	Restarts         int     `json:"restarts,omitempty"`      // times the job was killed by a fault and requeued
	NextEligible     int64   `json:"next_eligible,omitempty"` // requeue backoff: not schedulable before this time
	CheckpointedWork float64 `json:"ckpt_work,omitempty"`     // exclusive-speed seconds durably checkpointed (0 = none)
}

// New returns a job initialized with runtime sentinels.
func New(id int, name, user, vc string, gpus int, submit, duration int64, cfg workload.Config) *Job {
	j := &Job{
		ID:       id,
		Name:     name,
		User:     user,
		VC:       vc,
		GPUs:     gpus,
		Submit:   submit,
		AMP:      cfg.AMP,
		Duration: duration,
		Config:   cfg,
	}
	j.Reset()
	return j
}

// Reset returns the job's runtime state to submission time: pending, all
// work left, never started, not finished.
func (j *Job) Reset() {
	j.Runtime = Runtime{State: Pending, RemainingWork: float64(j.Duration), FirstStart: -1, Finish: -1}
}

// JCT returns the job completion time (finish − submit); -1 if unfinished.
func (j *Job) JCT() int64 {
	if j.Finish < 0 {
		return -1
	}
	return j.Finish - j.Submit
}

// QueueDelay returns the total time the job spent waiting: JCT minus time
// actually executing (profiling runs count as executing — the paper credits
// the profiler with giving debug jobs *immediate* feedback). -1 if
// unfinished.
func (j *Job) QueueDelay() int64 {
	if j.Finish < 0 {
		return -1
	}
	d := j.Finish - j.Submit - int64(j.RunTime+0.5)
	if d < 0 {
		return 0
	}
	return d
}

// Distributed reports whether the job spans more than one 8-GPU node.
func (j *Job) Distributed() bool { return j.GPUs > 8 }
