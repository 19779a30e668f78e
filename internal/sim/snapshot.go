package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/snap"
	"repro/internal/trace"
)

// SnapshotKind is the envelope kind for a full simulator world.
const SnapshotKind = "sim-world"

// SchedulerState is implemented by schedulers that carry mutable policy
// state across ticks (LAS clocks, model caches, RNG positions). Stateless
// schedulers (FIFO, SJF, QSSF) simply don't implement it. SnapshotState
// must return a self-contained blob that RestoreState on a *fresh* instance
// of the same scheduler turns into the exact captured state.
type SchedulerState interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// jobSnap is one job's runtime state. Static identity (name, VC, demand,
// ground-truth duration) lives in the trace and is not repeated here; ID
// keys the snapshot back to the trace's job.
type jobSnap struct {
	ID int `json:"id"`
	job.Runtime
}

// worldSnap is the complete serializable state of a Sim between two ticks.
// Deliberately NOT persisted (all reconstructible or replaceable): the trace
// itself (fingerprinted instead), the speeds (a pure function of placement,
// rebuilt by recomputeSpeeds), the waiting set and completion predictions
// (pure functions of job state), the partner index (built again from the
// restored running set by the first Env.RunningWith), the pending-annotation buffer
// (always empty at tick boundaries), retained dtrace events and the trace
// sink (the digest and counters carry the continuation), and the chaos
// straggler set (a pure function of seed and cluster shape).
type worldSnap struct {
	TraceFP   uint64 `json:"trace_fp"`
	SchedName string `json:"sched"`
	Tick      int64  `json:"tick"`

	Now         int64   `json:"now"`
	ArriveIdx   int     `json:"arrive_idx"`
	Finished    int     `json:"finished"`
	LastSched   int64   `json:"last_sched"`
	LastSample  int64   `json:"last_sample"`
	UtilSum     float64 `json:"util_sum"`
	MemSum      float64 `json:"mem_sum"`
	UtilSamples int     `json:"util_samples"`
	Dirty       bool    `json:"dirty,omitempty"`

	SharedStarts int     `json:"shared_starts,omitempty"`
	SharedGPUSum float64 `json:"shared_gpu_sum,omitempty"`
	NodeFailures int     `json:"node_failures,omitempty"`
	GPUFailures  int     `json:"gpu_failures,omitempty"`
	JobKills     int     `json:"job_kills,omitempty"`
	Requeues     int     `json:"requeues,omitempty"`
	Exhausted    int     `json:"exhausted,omitempty"`

	Jobs     []jobSnap          `json:"jobs"`
	Main     cluster.SnapState  `json:"main"`
	Profiler *cluster.SnapState `json:"profiler,omitempty"`

	ProfileStart map[int]int64   `json:"profile_start,omitempty"`
	Elastic      map[int]int     `json:"elastic,omitempty"`
	GenSpeed     map[int]float64 `json:"gen_speed,omitempty"`
	ChaosDown    map[int]int64   `json:"chaos_down,omitempty"`

	Recorder   *dtrace.State `json:"recorder,omitempty"`
	InvCount   int           `json:"inv_count,omitempty"`
	InvSamples []string      `json:"inv_samples,omitempty"`

	SchedState []byte `json:"sched_state,omitempty"`
}

// TraceFingerprint digests the identity of a trace — every job's static
// fields plus the cluster shape — so Resume can refuse a snapshot taken
// against a different world.
func TraceFingerprint(tr *trace.Trace) uint64 {
	var buf bytes.Buffer
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		buf.Write(b[:])
	}
	num(int64(tr.Days))
	num(int64(tr.Cluster.GPUsPerNode))
	for _, vc := range tr.Cluster.VCs {
		buf.WriteString(vc.Name)
		num(int64(vc.Nodes))
	}
	for _, j := range tr.Jobs {
		num(int64(j.ID))
		num(j.Submit)
		num(j.Duration)
		num(int64(j.GPUs))
		buf.WriteString(j.VC)
		buf.WriteString(j.Name)
		buf.WriteString(j.User)
		num(int64(j.Config.Model))
		num(int64(j.Config.BatchSize))
		if j.Config.AMP {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return snap.Digest(buf.Bytes())
}

// Snapshot serializes the complete world state into a versioned,
// digest-protected envelope. It must be called at a tick boundary (between
// Run/RunUntil steps) — the only point at which the engine's state is
// consistent and the pending-annotation buffer is empty.
func (s *Sim) Snapshot(w io.Writer) error {
	dto := worldSnap{
		TraceFP:      TraceFingerprint(s.tr),
		SchedName:    s.sched.Name(),
		Tick:         s.opts.Tick,
		Now:          s.now,
		ArriveIdx:    s.arriveIdx,
		Finished:     s.finished,
		LastSched:    s.lastSched,
		LastSample:   s.lastSample,
		UtilSum:      s.utilSum,
		MemSum:       s.memSum,
		UtilSamples:  s.utilSamples,
		Dirty:        s.dirty,
		SharedStarts: s.sharedStarts,
		SharedGPUSum: s.sharedGPUSum,
		NodeFailures: s.nodeFailures,
		GPUFailures:  s.gpuFailures,
		JobKills:     s.jobKills,
		Requeues:     s.requeues,
		Exhausted:    s.exhausted,
		Main:         s.main.SnapState(),
	}
	if s.profiler != nil {
		ps := s.profiler.SnapState()
		dto.Profiler = &ps
	}
	dto.Jobs = make([]jobSnap, len(s.jobs))
	for i, j := range s.jobs {
		dto.Jobs[i] = jobSnap{ID: j.ID, Runtime: j.Runtime}
	}
	// The format carries the per-placement records as three ID-keyed maps,
	// each absent when it would be empty.
	for i, j := range s.profiling.jobs {
		put(&dto.ProfileStart, j.ID, s.profiling.recs[i].profStart)
	}
	for i, j := range s.running.jobs {
		p := &s.running.recs[i]
		if p.elastic > 0 {
			put(&dto.Elastic, j.ID, p.elastic)
		}
		if p.gen != 0 {
			put(&dto.GenSpeed, j.ID, p.gen)
		}
	}
	for n, at := range s.repairAt {
		put(&dto.ChaosDown, n, at)
	}
	if rec := s.opts.DecisionTrace; rec != nil {
		st := rec.SnapState()
		dto.Recorder = &st
	}
	if c := s.opts.Invariants; c != nil {
		dto.InvCount = c.count
		dto.InvSamples = append([]string(nil), c.samples...)
	}
	if ss, ok := s.sched.(SchedulerState); ok {
		blob, err := ss.SnapshotState()
		if err != nil {
			return fmt.Errorf("sim: snapshot scheduler %s: %w", s.sched.Name(), err)
		}
		dto.SchedState = blob
	}
	payload, err := json.Marshal(dto)
	if err != nil {
		return fmt.Errorf("sim: encode snapshot: %w", err)
	}
	return snap.WriteEnvelope(w, SnapshotKind, payload)
}

// Resume reconstructs a mid-run simulation from a snapshot. tr must be the
// identical trace the snapshot was taken against (verified by fingerprint);
// sched and opts are the caller's — pass the same scheduler type to continue
// the interrupted run bit-exactly, or a different one to fork a what-if.
//
// Scheduler policy state is restored only when sched.Name() matches the
// snapshot's scheduler; a different scheduler starts with fresh policy state
// over the restored world (that is the time-travel fork semantics). A
// matching stateful scheduler that cannot restore is an error, because the
// continuation would silently diverge.
func Resume(tr *trace.Trace, sched Scheduler, opts Options, r io.Reader) (*Sim, error) {
	payload, err := snap.ReadEnvelope(r, SnapshotKind)
	if err != nil {
		return nil, err
	}
	var dto worldSnap
	if err := json.Unmarshal(payload, &dto); err != nil {
		return nil, fmt.Errorf("sim: decode snapshot: %w", err)
	}
	if fp := TraceFingerprint(tr); fp != dto.TraceFP {
		return nil, fmt.Errorf("sim: snapshot was taken against a different trace (fingerprint %s, want %s)",
			snap.DigestString(dto.TraceFP), snap.DigestString(fp))
	}

	s := New(tr, sched, opts)
	if s.opts.Tick != dto.Tick {
		return nil, fmt.Errorf("sim: snapshot tick %ds differs from options tick %ds", dto.Tick, s.opts.Tick)
	}
	if len(dto.Jobs) != len(s.jobs) {
		return nil, fmt.Errorf("sim: snapshot has %d jobs, trace has %d", len(dto.Jobs), len(s.jobs))
	}

	s.now = dto.Now
	s.arriveIdx = dto.ArriveIdx
	s.finished = dto.Finished
	s.lastSched = dto.LastSched
	s.lastSample = dto.LastSample
	s.utilSum = dto.UtilSum
	s.memSum = dto.MemSum
	s.utilSamples = dto.UtilSamples
	s.dirty = dto.Dirty
	s.unseen = true
	s.sharedStarts = dto.SharedStarts
	s.sharedGPUSum = dto.SharedGPUSum
	s.nodeFailures = dto.NodeFailures
	s.gpuFailures = dto.GPUFailures
	s.jobKills = dto.JobKills
	s.requeues = dto.Requeues
	s.exhausted = dto.Exhausted

	for _, js := range dto.Jobs {
		j := s.byID(js.ID)
		if j == nil {
			return nil, fmt.Errorf("sim: snapshot job %d not in trace", js.ID)
		}
		j.Runtime = js.Runtime
		// Every running record starts stale: speeds are a pure function of
		// placement + colocation + straggler factors, rebuilt below once the
		// clusters are restored.
		switch js.State {
		case job.Running:
			s.running.insert(j, placement{speed: 1, stale: true,
				gen: dto.GenSpeed[js.ID], elastic: dto.Elastic[js.ID]})
		case job.Profiling:
			if s.profiler == nil {
				return nil, fmt.Errorf("sim: snapshot job %d is profiling but options configure no profiler cluster", js.ID)
			}
			s.profiling.insert(j, placement{speed: 1, profStart: dto.ProfileStart[js.ID]})
		}
	}

	// The waiting set and the backoff heap are pure functions of restored
	// job state — rebuild rather than serialize. Queue order is identical to
	// a continuous run's: both are ascending trace index.
	for _, j := range s.jobs[:s.arriveIdx] {
		if j.State == job.Pending || j.State == job.Queued {
			s.enqueue(j)
			if j.NextEligible > s.now {
				s.pushBackoff(j)
			}
		}
	}

	if err := s.main.Restore(dto.Main); err != nil {
		return nil, fmt.Errorf("sim: restore main cluster: %w", err)
	}
	if dto.Profiler != nil {
		if s.profiler == nil {
			return nil, fmt.Errorf("sim: snapshot has a profiler cluster but options configure none (set ProfilerNodes)")
		}
		if err := s.profiler.Restore(*dto.Profiler); err != nil {
			return nil, fmt.Errorf("sim: restore profiler cluster: %w", err)
		}
	}

	if len(dto.ChaosDown) > 0 && s.opts.Chaos == nil {
		return nil, fmt.Errorf("sim: snapshot has %d nodes under repair but options configure no chaos spec", len(dto.ChaosDown))
	}
	for n, at := range dto.ChaosDown {
		s.repairAt[n] = at
	}
	if rec := s.opts.DecisionTrace; rec != nil && dto.Recorder != nil {
		rec.SetState(*dto.Recorder)
	}
	if c := s.opts.Invariants; c != nil {
		c.count = dto.InvCount
		c.samples = append([]string(nil), dto.InvSamples...)
	}

	if len(dto.SchedState) > 0 && sched.Name() == dto.SchedName {
		ss, ok := sched.(SchedulerState)
		if !ok {
			return nil, fmt.Errorf("sim: scheduler %s carries snapshot state but does not implement SchedulerState", dto.SchedName)
		}
		if err := ss.RestoreState(dto.SchedState); err != nil {
			return nil, fmt.Errorf("sim: restore scheduler %s: %w", dto.SchedName, err)
		}
	}

	s.recomputeSpeeds()
	return s, nil
}

// Fork clones this simulation's complete current state into a new run under
// a (possibly different) scheduler — the warm-start primitive: simulate the
// shared prefix once, then fork per scheduler where the policies diverge.
func (s *Sim) Fork(sched Scheduler, opts Options) (*Sim, error) {
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		return nil, err
	}
	return Resume(s.tr, sched, opts, &buf)
}

// put sets m[k] = v, making the map on first use.
func put[V any](m *map[int]V, k int, v V) {
	if *m == nil {
		*m = make(map[int]V)
	}
	(*m)[k] = v
}
