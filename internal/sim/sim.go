// Package sim is the trace-driven GPU-cluster simulator behind every
// large-scale experiment in the paper's §4.3–§4.7 (the authors likewise
// derive all large-scale results from a simulator whose fidelity §4.2
// validates — our Table 3 experiment performs the same validation between a
// 1-second fine-grained engine and the coarse event loop used at scale).
//
// Time is a fixed tick grid. The default engine (EngineEvent, engine.go)
// executes only the ticks on which something observable can happen and
// replays the skipped ones in closed form; EngineTick executes every tick and
// is the oracle the parity tests hold it to, bit for bit. On each executed
// tick the engine (1) integrates the progress of running jobs under the
// colocation interference model, (2) retires finished jobs with sub-tick
// completion timestamps, (3) releases newly submitted jobs to the scheduler,
// (4) invokes the scheduler, and (5) recomputes execution speeds from the
// resulting placement. Schedulers drive placement exclusively through Env,
// which also exposes the decoupled profiling cluster Lucid's Non-intrusive
// Job Profiler manages (§3.2). Each Env mutator either succeeds and keeps
// every invariant, or returns false and changes no state but the trace. A
// mutator acts only on the run's own copy of a job, the pointer Env's views
// hand out, and refuses any other, such as the trace's *job.Job of the same
// ID.
//
// Non-intrusiveness is a simulation rule, not just a slogan: a job moved off
// the profiling cluster restarts from zero progress (no checkpoints exist
// unless a scheduler is explicitly intrusive), whereas the intrusive
// Preempt used by Tiresias checkpoints remaining work at the cost of a
// cold-start overhead on resume.
package sim

import (
	"math"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheduler is the policy interface. Tick is invoked whenever cluster state
// may have changed (arrivals, completions) and at least every
// Options.SchedulerEvery seconds.
type Scheduler interface {
	Name() string
	Tick(env *Env)
}

// Options tunes the engine.
type Options struct {
	// Engine selects the advancement strategy. EngineEvent (the zero
	// value) jumps the clock between wake-up events (arrivals, predicted
	// completions, backoff expiries, chaos fires, cadence and sampling
	// timers) and replays the skipped ticks' arithmetic in closed form;
	// EngineTick steps every fixed tick and is the oracle the event engine
	// reproduces bit-identically (see engine.go).
	Engine EngineKind

	Tick           int64 // seconds per step (default 30)
	SchedulerEvery int64 // max seconds between scheduler invocations (default 300)
	// SampleEvery is the utilization sampling period (default 600) and
	// MaxHorizon the hard stop in seconds (default 6× the trace window).
	// Runs keep both defaults; tests move them to reach a wake-up or the
	// horizon.
	SampleEvery int64
	MaxHorizon  int64

	// ProfilerNodes adds a decoupled profiling cluster of this many 8-GPU
	// nodes (0 = none). Only Lucid uses it.
	ProfilerNodes int

	// DecisionTrace records every scheduling decision — engine state
	// transitions plus scheduler-annotated reasoning and counterfactuals —
	// on the given flight recorder (see internal/dtrace). It is the run's
	// one event log: each job's placements, packs, preemptions, profiling
	// transitions and retirement, in clock order. Nil (the default)
	// disables tracing; the engine then pays only a nil check.
	DecisionTrace *dtrace.Recorder

	// Invariants validates the engine's physical invariants after every
	// executed tick (see InvariantChecker). Nil (the default) disables
	// checking; violations otherwise surface on Result.Violations.
	Invariants *InvariantChecker

	// Chaos injects node/GPU/job faults each tick (see internal/chaos and
	// chaos.go in this package). Nil (the default) disables injection; the
	// engine then pays only a nil check. The run only reads the spec, so one
	// spec may serve any number of runs.
	Chaos *chaos.Spec

	// Metrics records per-tick phase timings and scheduler-decision latency
	// histograms on the given registry (see metrics.go in this package). Nil
	// (the default) disables recording; the engine then pays only nil
	// checks. Timings are observational only — they never alter simulation
	// state, so decision-trace digests are identical with metrics on or off.
	Metrics *metrics.Registry
}

func (o Options) normalized(traceDays int) Options {
	if o.Tick <= 0 {
		o.Tick = 30
	}
	if o.SchedulerEvery <= 0 {
		o.SchedulerEvery = 300
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 600
	}
	if o.MaxHorizon <= 0 {
		days := traceDays
		if days <= 0 {
			days = 1
		}
		o.MaxHorizon = int64(days) * 86400 * 6
	}
	return o
}

// Sim is one simulation run.
type Sim struct {
	opts     Options
	tr       *trace.Trace // retained for Snapshot fingerprinting and Fork
	jobs     []*job.Job
	main     *cluster.Cluster
	profiler *cluster.Cluster
	sched    Scheduler

	now        int64
	arriveIdx  int
	idxOf      map[int]int // job ID → index in jobs, built by byID on first use
	backoff    evheap      // requeue-backoff expiry ticks (chaos wake-ups)
	running    residents   // on the main cluster, ascending ID (residents.go)
	profiling  residents   // on the profiling cluster, ascending ID
	peers      peers       // running by (VC, GPUs); nil until Env.RunningWith
	requeued   []*job.Job  // backoff expiries of this tick (Env.Requeued)
	finished   int
	lastSched  int64
	lastSample int64
	// unseen is set from Resume until the scheduler's first round. The
	// world may have been left by another policy or configuration (Fork),
	// and nothing says this one would leave it alone, so until then the
	// event engine elides no cadence point.
	unseen bool

	// waiting is the waiting set, one ordered queue per VC in name order
	// (waiting.go); vcPos finds a VC's queue. queues is the scratch behind
	// Env.Queues.
	waiting []waitq
	vcPos   map[string]int
	queues  []Queue

	utilSum, memSum float64
	utilSamples     int

	// dirty records completions/preemptions since the last scheduler call,
	// forcing an extra invocation so freed capacity is reused promptly.
	dirty bool

	// pendAnn holds scheduler-provided explanations awaiting their engine
	// event (decision tracing only; see dtrace.go).
	pendAnn map[int]annotation

	// sharedStarts counts successful packed placements, and sharedGPUSum
	// accumulates shared-GPU counts at sampling instants (packing-efficacy
	// metrics for the §4.3 utilization claims).
	sharedStarts int
	sharedGPUSum float64

	// Fault injection (Options.Chaos; see chaos.go): the run's fault
	// schedule, nil when chaos is off, and the repair clock of every down
	// node (node → repair-completion time).
	faults   *chaos.Injector
	repairAt map[int]int64

	nodeFailures int
	gpuFailures  int
	jobKills     int
	requeues     int
	exhausted    int

	// met holds the pre-resolved engine instruments (Options.Metrics; see
	// metrics.go). Nil when metrics are off.
	met *simMetrics

	// Event-engine state (Options.Engine == EngineEvent; see engine.go):
	// predicted completion ticks and the sequence number that ties a heap
	// entry to the placement record it was computed for.
	completions evheap
	predSeq     uint64
}

// New prepares a run of the scheduler over the trace.
func New(tr *trace.Trace, sched Scheduler, opts Options) *Sim {
	opts = opts.normalized(tr.Days)
	s := &Sim{
		opts:  opts,
		tr:    tr,
		main:  cluster.New(tr.Cluster),
		sched: sched,
		met:   newSimMetrics(opts.Metrics),
	}
	if opts.ProfilerNodes > 0 {
		s.profiler = cluster.New(cluster.Spec{
			GPUsPerNode: 8,
			GPUMemMB:    workload.GPUMemMBCap,
			VCs:         []cluster.VCSpec{{Name: "profiler", Nodes: opts.ProfilerNodes}},
		})
	}
	// Fresh runtime state per run: clone the jobs so a trace can be replayed
	// under several schedulers. Each copy carries its slot and its VC's
	// position, so the engine finds its queue without a lookup.
	s.jobs = make([]*job.Job, len(tr.Jobs))
	s.waiting, s.vcPos = newWaiting(tr.Jobs)
	if len(s.waiting) > math.MaxUint16+1 {
		panic("sim: a trace holds at most 65536 VCs")
	}
	for i, j := range tr.Jobs {
		cp := *j
		cp.Reset()
		cp.Slot, cp.VCPos = uint32(i), uint16(s.vcPos[j.VC])
		s.jobs[i] = &cp
	}
	if opts.Chaos != nil {
		s.faults = chaos.NewInjector(*opts.Chaos, s.main.NumNodes(), s.main.Spec().GPUsPerNode)
		s.repairAt = make(map[int]int64)
	}
	return s
}

// live reports whether the simulation still has work within the horizon.
func (s *Sim) live() bool {
	return s.finished < len(s.jobs) && s.now < s.opts.MaxHorizon
}

// stepTick executes exactly one tick of the engine loop. Run, RunUntil and
// a resumed run all drive this same body, so a snapshot taken between ticks
// continues with the identical decision sequence an uninterrupted run would
// have produced. force bypasses the scheduler gate (StepOnce's semantics:
// benchmark callers time exactly one decision, so one must happen).
func (s *Sim) stepTick(env *Env, force bool) {
	m := s.met
	s.now += s.opts.Tick

	t := m.time(timeAdvance)
	s.advance(float64(s.opts.Tick))
	t.Stop()

	t = m.time(timeChaos)
	s.applyChaos()
	t.Stop()

	arrived := s.admitArrivals()
	// A requeue backoff expiring counts as an arrival: the job just became
	// schedulable, so the scheduler must run now, not at the next cadence
	// boundary with the capacity sitting idle.
	if s.drainBackoff() {
		arrived = true
	}
	if force || arrived || s.now-s.lastSched >= s.opts.SchedulerEvery || s.dirty {
		s.dirty, s.unseen = false, false
		t = m.time(timeDecide)
		s.sched.Tick(env)
		t.Stop()
		if m != nil {
			m.schedRuns.Inc()
			s.observeSchedState()
		}
		s.lastSched = s.now
		// Unconsumed annotations would mislabel a later, unrelated
		// event; a scheduler round's explanations die with the round.
		if len(s.pendAnn) > 0 {
			clear(s.pendAnn)
		}
	}

	t = m.time(timeSpeeds)
	s.recomputeSpeeds()
	t.Stop()
	if m != nil {
		m.ticks.Inc()
	}
	s.checkInvariants()

	if s.now-s.lastSample >= s.opts.SampleEvery {
		s.sample()
		s.lastSample = s.now
	}
}

// Run executes the simulation to completion (all jobs finished) or the
// horizon, returning aggregate metrics.
func (s *Sim) Run() *Result {
	if s.opts.Engine == EngineEvent {
		return s.runEvent()
	}
	env := &Env{s: s}
	for s.live() {
		s.stepTick(env, false)
	}
	return s.collect()
}

// RunUntil executes ticks until the clock reaches at least t (or the run
// completes) and reports whether the simulation is done. It leaves the
// engine at a tick boundary — the consistent point Snapshot serializes —
// after which Run picks up exactly where an uninterrupted run would be.
func (s *Sim) RunUntil(t int64) bool {
	if s.opts.Engine == EngineEvent {
		return s.runEventUntil(t)
	}
	env := &Env{s: s}
	for s.live() && s.now < t {
		s.stepTick(env, false)
	}
	return !s.live()
}

// advance integrates dt seconds of execution for running and profiling
// jobs, retiring completions.
func (s *Sim) advance(dt float64) {
	s.advanceSet(&s.running, dt)
	if s.profiler != nil {
		s.advanceSet(&s.profiling, dt)
	}
}

func (s *Sim) advanceSet(set *residents, dt float64) {
	// done inherits the set's ID order, so jobs retire — and the event stream
	// (and therefore the decision-trace digest) reads — in ID order.
	var done []*job.Job
	for i, j := range set.jobs {
		eff := dt
		if j.ColdStart > 0 {
			// Checkpoint-restore overhead: wall clock passes, no progress —
			// but the GPUs stay occupied, so attained service accrues just
			// like run time does. Tiresias's LAS priority must see the same
			// GPU-time the cluster actually charged, or the jobs it preempts
			// (the only ones that pay cold starts) get undercounted and jump
			// the queue on resume.
			if j.ColdStart >= eff {
				j.ColdStart -= eff
				j.RunTime += dt
				j.AttainedGPUT += dt * float64(j.GPUs)
				continue
			}
			eff -= j.ColdStart
			j.ColdStart = 0
		}
		speed := set.recs[i].speed
		progress := speed * eff
		j.RunTime += dt
		j.AttainedGPUT += dt * float64(j.GPUs)
		if progress >= j.RemainingWork {
			// Sub-tick completion timestamp.
			used := j.RemainingWork / speed
			j.Finish = s.now - int64(dt) + int64(dt-eff+used+0.5)
			j.RemainingWork = 0
			done = append(done, j)
			continue
		}
		j.RemainingWork -= progress
	}
	retireReason := "finished"
	if set == &s.profiling {
		retireReason = "finished-while-profiling"
	}
	for _, j := range done {
		s.evict(j)
		j.State = job.Finished
		s.trace(dtrace.ActRetire, j, retireReason, 0)
		s.finished++
	}
}

// evict takes a resident job off whichever cluster holds it: frees its GPUs
// and removes it, with its placement record, from the resident set. Every way
// a job stops being resident — retire, Preempt, StopProfiling, a fault kill,
// an elastic rollback — goes through here and then sets the job's next State
// itself (and, if that State waits, enqueues it). Freed capacity is news for
// the scheduler, so the next tick runs a round (dirty). A job that is not
// resident is left alone and evict reports false.
func (s *Sim) evict(j *job.Job) bool {
	switch j.State {
	case job.Running:
		s.freeMain(j.ID)
		s.running.remove(j.ID)
		if s.peers != nil {
			s.peers.of(int(j.VCPos), j.GPUs).drop(j.ID)
		}
	case job.Profiling:
		s.profiler.Free(j.ID)
		s.profiling.remove(j.ID)
	default:
		return false
	}
	s.dirty = true
	return true
}

// freeMain releases a running job's GPUs. A packing partner left behind runs
// alone from now on, so its speed is stale; the cluster forgets who shared
// with whom the moment the GPUs are freed, hence PartnerOf first.
func (s *Sim) freeMain(id int) {
	partner := s.main.PartnerOf(id)
	s.main.Free(id)
	if partner >= 0 {
		s.running.markStale(partner)
	}
}

// admitArrivals releases jobs whose submit time has come.
func (s *Sim) admitArrivals() bool {
	any := false
	for s.arriveIdx < len(s.jobs) && s.jobs[s.arriveIdx].Submit <= s.now {
		// State stays Pending; schedulers decide what Pending means.
		j := s.jobs[s.arriveIdx]
		s.trace(dtrace.ActRelease, j, "submitted", 0)
		s.enqueue(j)
		s.arriveIdx++
		any = true
	}
	return any
}

// pushBackoff registers a future wake-up at the first tick on which the
// job's requeue backoff will have elapsed. Without it, a job whose
// NextEligible expires between scheduler rounds sits invisible-but-eligible
// until the next cadence boundary even with free capacity (the satellite-2
// bug); with it, expiry gates a scheduler round exactly like an arrival.
func (s *Sim) pushBackoff(j *job.Job) {
	at := firstTickGE(j.NextEligible, s.opts.Tick)
	s.backoff.push(tickEvent{at: at, id: j.ID})
}

// firstTickGE returns the first multiple of tick at or after t.
func firstTickGE(t, tick int64) int64 {
	return (t + tick - 1) / tick * tick
}

// drainBackoff pops every backoff entry due by now and reports whether any
// of them woke a job that is actually schedulable (stale entries — the job
// re-ran and died again, or turned terminal — are discarded). The woken jobs
// are this tick's Env.Requeued.
func (s *Sim) drainBackoff() bool {
	s.requeued = s.requeued[:0]
	for {
		top, ok := s.backoff.peek()
		if !ok || top.at > s.now {
			return len(s.requeued) > 0
		}
		s.backoff.pop()
		j := s.byID(top.id)
		if (j.State == job.Pending || j.State == job.Queued) && j.NextEligible <= s.now {
			s.requeued = append(s.requeued, j)
		}
	}
}

// recomputeSpeeds brings every stale speed up to date. A running job's speed
// is a pure function of its placement (speedOf), and a placement changes at
// five places, each of which marks what it touched: startRunning marks the
// job, StartShared the partner it joins, freeMain the partner it leaves,
// ResizeElastic the job, Resume everyone. Profiling jobs run at full speed
// (the profiler allocates exclusively) and are never stale.
func (s *Sim) recomputeSpeeds() {
	r := &s.running
	if !r.stale {
		return
	}
	r.stale = false
	for i := range r.recs {
		if p := &r.recs[i]; p.stale {
			p.speed, p.stale = s.speedOf(r.jobs[i], p.gen, p.elastic), false
		}
	}
}

// speedOf computes a running job's execution speed from its colocation, its
// straggler factor and its elastic allocation (0 = not elastic).
func (s *Sim) speedOf(j *job.Job, gen float64, elastic int) float64 {
	if gen <= 0 {
		gen = 1
	}
	if elastic > 0 {
		return elasticSpeed(elastic, j.GPUs) * gen
	}
	sp := 1.0
	if partner := s.main.PartnerOf(j.ID); partner >= 0 {
		if k, ok := s.running.find(partner); ok {
			sp, _ = workload.PairSpeed(j.Config, s.running.jobs[k].Config)
			if j.Distributed() {
				sp *= workload.CrossNodePenalty
			}
		}
	}
	return sp * gen
}

// sample records cluster-wide GPU utilization and memory occupancy from the
// profiles of resident jobs.
func (s *Sim) sample() {
	total := float64(s.main.TotalGPUs())
	if total == 0 {
		return
	}
	var util, mem float64
	// Accumulated in the set's ID order: float addition is not associative,
	// so the order is part of the utilization metrics' low bits.
	for i, j := range s.running.jobs {
		p := j.Config.Profile()
		sp := s.running.recs[i].speed
		n := float64(j.GPUs)
		util += p.GPUUtil * sp * n
		mem += p.GPUMemMB * n
	}
	maxUtil := total * 100
	if util > maxUtil {
		util = maxUtil
	}
	// Clamp memory like utilization: packed jobs that were placed unprofiled
	// bypass the allocator's memory guard (it reserves 0 for them), so their
	// true profile footprints can sum past physical capacity. The hardware
	// cannot hold more than 100% — without the clamp AvgGPUMemPct drifts
	// above it under packing-heavy schedules.
	maxMem := total * workload.GPUMemMBCap
	if mem > maxMem {
		mem = maxMem
	}
	s.utilSum += util / maxUtil * 100
	s.memSum += mem / maxMem * 100
	_, shared := s.main.Occupancy()
	s.sharedGPUSum += float64(shared)
	s.utilSamples++
}

// StepOnce advances exactly one tick, invoking the scheduler once — used by
// the Figure 10a latency benchmark to time a single scheduling decision
// over a controlled queue. It delegates to the real engine body with the
// scheduler gate forced open; a hand-rolled copy here had drifted (it never
// cleared dirty, skipped the ticks metric and the sampling cadence), so
// snapshots taken after it diverged from a genuine run.
func (s *Sim) StepOnce() {
	s.stepTick(&Env{s: s}, true)
}

// Env is the scheduler's handle on the simulation.
type Env struct {
	s *Sim
}

// Now returns the simulation time in seconds.
func (e *Env) Now() int64 { return e.s.now }

// LastSchedulerRun returns the time of the most recent scheduler round
// (including no-op cadence rounds the event engine certified and elided).
// EventAware implementations use it to decide whether a past decision time
// is still pending: a time-gated action (a preemption quantum expiring, a
// starvation promotion crossing) stays due until a round has run at or after
// it — the simulation clock passing it is not enough, because between two
// cadence points the clock can advance on unrelated wake-ups (sampling,
// arrivals in other VCs) without the scheduler ever acting.
func (e *Env) LastSchedulerRun() int64 { return e.s.lastSched }

// Running returns jobs executing on the main cluster, in id order. The
// slice is a snapshot — jobs started or stopped later do not show up in it
// — but it is shared with the engine until then (see residents.view): read
// it, append to it, do not assign to its elements.
func (e *Env) Running() []*job.Job { return e.s.running.view() }

// RunningWith returns the running jobs of the VC that demand gpus GPUs, in id
// order, under Running's snapshot contract: the packing partners §3.3's rule
// 2 permits a job of that VC and demand. The first call indexes the running
// set (peers); the engine maintains the index from then on.
func (e *Env) RunningWith(vc string, gpus int) []*job.Job {
	s := e.s
	p, ok := s.vcPos[vc]
	if !ok {
		return nil
	}
	if s.peers == nil {
		s.peers = make(peers, len(s.waiting))
		for _, j := range s.running.jobs {
			s.peers.of(int(j.VCPos), j.GPUs).add(j)
		}
	}
	return s.peers.of(p, gpus).view()
}

// Requeued returns the waiting jobs that became visible on this tick because
// their requeue backoff elapsed — fault-killed jobs, back in Queues after
// being hidden there since the kill. It is the only way a job rejoins the
// waiting set without a scheduler's own action or an arrival, so a scheduler
// that tracks its queue incrementally reads it every round (a tick that has
// any runs one). The slice is scratch the next tick overwrites.
func (e *Env) Requeued() []*job.Job { return e.s.requeued }

// Profiling returns jobs on the profiling cluster, in id order, under the
// same snapshot contract as Running.
func (e *Env) Profiling() []*job.Job { return e.s.profiling.view() }

// Cluster exposes the main cluster for capacity queries.
func (e *Env) Cluster() *cluster.Cluster { return e.s.main }

// ProfilerCluster exposes the profiling cluster (nil if not configured).
func (e *Env) ProfilerCluster() *cluster.Cluster { return e.s.profiler }

// StartExclusive places the job consolidated-and-exclusive on the main
// cluster. Returns false if capacity is lacking.
func (e *Env) StartExclusive(j *job.Job) bool {
	if reason, bad := e.s.unplaceable(j); bad {
		e.s.trace(dtrace.ActPlaceFail, j, reason, 0)
		return false
	}
	mem := 0.0
	if j.Profiled {
		mem = j.Profile.GPUMemMB
	}
	gpus, err := e.s.main.Allocate(j.ID, j.VC, j.GPUs, mem)
	if err != nil {
		e.s.trace(dtrace.ActPlaceFail, j, "no-capacity", 0)
		return false
	}
	e.s.startRunning(j, gpus, 0)
	e.s.trace(dtrace.ActPlace, j, "exclusive", 0)
	return true
}

// unplaceable rejects every job a placement request must not act on: only
// the run's own Pending and Queued jobs may be (re)started on the main
// cluster. The guard previously checked Running||Finished alone, which let a
// buggy scheduler resurrect a terminal Failed job — its retries were
// exhausted for good — or double-place a job currently on the profiling
// cluster, corrupting both clusters' accounting.
func (s *Sim) unplaceable(j *job.Job) (string, bool) {
	switch {
	case !s.own(j):
		return "foreign-job", true
	case j.State == job.Running:
		return "already-placed", true
	case j.State.Terminal():
		return "terminal-state", true
	case j.State == job.Profiling:
		return "still-profiling", true
	}
	return "", false
}

// byID returns the job with the given ID, nil for none. The ID index behind
// it is built on first use: only the paths that start from an ID need it —
// the backoff heap, chaos victims, snapshot restore — and a run without
// faults takes none of them.
func (s *Sim) byID(id int) *job.Job {
	if s.idxOf == nil {
		s.idxOf = make(map[int]int, len(s.jobs))
		for i, j := range s.jobs {
			s.idxOf[j.ID] = i
		}
	}
	if i, ok := s.idxOf[id]; ok {
		return s.jobs[i]
	}
	return nil
}

// own reports whether j is this run's copy of its job, the only pointer an
// Env mutator acts on. Any other copy — the trace's own job, a clone — has
// the ID of one of the run's jobs but not its state, and its slot names
// another job's place or none: acting on it would queue, place or free by
// that ID while the run's copy stayed where it was.
func (s *Sim) own(j *job.Job) bool {
	return int(j.Slot) < len(s.jobs) && s.jobs[j.Slot] == j
}

// stragglerFactor is a placement's speed factor: the slowest of its nodes'
// chaos.Injector.SpeedFactor, since the whole job goes at its slowest
// worker's pace, and 1 without an injector.
func (s *Sim) stragglerFactor(gpus []cluster.GPUID) float64 {
	f := 1.0
	if inj := s.faults; inj != nil {
		for _, g := range gpus {
			f = min(f, inj.SpeedFactor(g.Node))
		}
	}
	return f
}

// StartShared packs the job onto partner's GPUs, so it refuses a partner of
// another demand or an elastic one running below its own. Policy (GSS
// budgets, …) is the caller's; the cluster enforces the cap and memory guard.
func (e *Env) StartShared(j, partner *job.Job) bool {
	if reason, bad := e.s.unplaceable(j); bad {
		e.s.trace(dtrace.ActPackReject, j, reason, partner.ID)
		return false
	}
	if partner.State != job.Running || !e.s.own(partner) {
		e.s.trace(dtrace.ActPackReject, j, "partner-not-running", partner.ID)
		return false
	}
	if j.GPUs != partner.GPUs {
		e.s.trace(dtrace.ActPackReject, j, "demand-mismatch", partner.ID)
		return false
	}
	if a := e.ElasticAlloc(partner); a != 0 && a != partner.GPUs {
		e.s.trace(dtrace.ActPackReject, j, "partner-below-demand", partner.ID)
		return false
	}
	mem := 0.0
	if j.Profiled {
		mem = j.Profile.GPUMemMB
	}
	gpus, err := e.s.main.AllocateShared(j.ID, partner.ID, mem)
	if err != nil {
		e.s.trace(dtrace.ActPackReject, j, "no-share-capacity", partner.ID)
		return false
	}
	e.s.startRunning(j, gpus, 0)
	e.s.running.markStale(partner.ID) // it has company now
	e.s.sharedStarts++
	e.s.trace(dtrace.ActPack, j, "packed", partner.ID)
	return true
}

// startRunning moves a waiting job that was just allocated gpus into the
// running set. elastic is its allocation when StartElastic placed it, else 0.
// The record starts stale: the speed is computed at the end of the tick, once
// the round's packing is settled.
func (s *Sim) startRunning(j *job.Job, gpus []cluster.GPUID, elastic int) {
	s.dequeue(j)
	j.State = job.Running
	if j.FirstStart < 0 {
		j.FirstStart = s.now
	}
	s.running.insert(j, placement{speed: 1, stale: true, gen: s.stragglerFactor(gpus), elastic: elastic})
	if s.peers != nil {
		s.peers.of(int(j.VCPos), j.GPUs).add(j)
	}
}

// Preempt checkpoints a running job back to the queue (intrusive — Tiresias
// only): remaining work is preserved, and overheadSec of cold-start cost is
// charged when it next runs. Per §4.8 the paper measures 62 s per
// preemption.
func (e *Env) Preempt(j *job.Job, overheadSec float64) bool {
	if j.State != job.Running || !e.s.own(j) {
		return false
	}
	e.s.evict(j)
	j.State = job.Pending
	e.s.enqueue(j)
	j.Preemptions++
	j.ColdStart += overheadSec
	// The checkpoint is durable: if a fault later kills this job, it resumes
	// from here rather than from zero (see killJob in chaos.go).
	j.CheckpointedWork = float64(j.Duration) - j.RemainingWork
	e.s.trace(dtrace.ActPreempt, j, "checkpointed", 0)
	return true
}

// StartProfiling places the job exclusively on the profiling cluster.
func (e *Env) StartProfiling(j *job.Job) bool {
	if e.s.profiler == nil || j.State != job.Pending || !e.s.own(j) {
		return false
	}
	if _, err := e.s.profiler.Allocate(j.ID, "profiler", j.GPUs, 0); err != nil {
		return false
	}
	e.s.dequeue(j)
	j.State = job.Profiling
	if j.FirstStart < 0 {
		j.FirstStart = e.s.now
	}
	e.s.profiling.insert(j, placement{speed: 1, profStart: e.s.now})
	e.s.trace(dtrace.ActProfileStart, j, "admitted", 0)
	return true
}

// ProfilingElapsed returns seconds the job has spent in its current
// profiling run (0 if not profiling).
func (e *Env) ProfilingElapsed(j *job.Job) int64 {
	p := e.s.profiling.rec(j.ID)
	if p == nil {
		return 0
	}
	return e.s.now - p.profStart
}

// StopProfiling ends the job's profiling run: the measured profile is
// attached, the job restarts from zero progress (non-intrusive — no
// checkpoint exists), and it joins the main queue as Queued.
func (e *Env) StopProfiling(j *job.Job) {
	if j.State != job.Profiling || !e.s.own(j) {
		return
	}
	e.s.evict(j)
	j.State = job.Queued
	e.s.enqueue(j)
	j.Profiled = true
	j.Profile = j.Config.Profile()
	j.RemainingWork = float64(j.Duration) // restart: profiling work is lost
	// Restart-from-zero also voids any checkpoint debt: a job preempted
	// before profiling would otherwise pay a phantom checkpoint-restore on
	// its next start even though no checkpoint exists anymore.
	j.ColdStart = 0
	j.CheckpointedWork = 0
	e.s.trace(dtrace.ActProfileStop, j, "restart-from-zero", 0)
}

// AllJobs returns every job that has been submitted so far (any state), in
// submit order. The Update Engine mines this for completed-job history.
func (e *Env) AllJobs() []*job.Job {
	return e.s.jobs[:e.s.arriveIdx]
}

// Admit moves a Pending job straight to Queued, bypassing the profiler —
// used for jobs above the profiler's scale limit (§3.2) after their metrics
// are observed on the fly.
func (e *Env) Admit(j *job.Job) {
	if j.State == job.Pending && e.s.own(j) {
		j.State = job.Queued
	}
}

// ObserveOnTheFly attaches the job's profile without a profiling run —
// §3.2: "Lucid collects the metrics of those large jobs on the fly". The
// simulator grants the measurement immediately; in reality it converges
// within the first minutes of execution.
func (e *Env) ObserveOnTheFly(j *job.Job) {
	if !e.s.own(j) {
		return
	}
	j.Profiled = true
	j.Profile = j.Config.Profile()
}
