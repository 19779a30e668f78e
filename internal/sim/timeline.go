package sim

// Timeline recording: an optional per-job event log (start/preempt/finish,
// profiling transitions, packing) for post-hoc analysis — Gantt charts,
// per-VC occupancy plots, preemption storms. Enable with
// Options.RecordTimeline; the log is on Result.Timeline.

// EventKind labels one timeline entry.
type EventKind string

// Timeline event kinds.
const (
	EvStart        EventKind = "start"         // exclusive placement
	EvStartShared  EventKind = "start-shared"  // packed placement
	EvStartElastic EventKind = "start-elastic" // elastic placement
	EvPreempt      EventKind = "preempt"
	EvProfileStart EventKind = "profile-start"
	EvProfileStop  EventKind = "profile-stop"
	EvFinish       EventKind = "finish"
	EvKill         EventKind = "kill" // fault-injection kill (internal/chaos)
)

// TimelineEvent is one entry of the log.
type TimelineEvent struct {
	Time  int64
	JobID int
	Kind  EventKind
	GPUs  int
	VC    string
}

// record appends an event when recording is enabled.
func (s *Sim) record(kind EventKind, jobID int, gpus int, vc string) {
	if !s.opts.RecordTimeline {
		return
	}
	s.timeline = append(s.timeline, TimelineEvent{
		Time: s.now, JobID: jobID, Kind: kind, GPUs: gpus, VC: vc,
	})
}
