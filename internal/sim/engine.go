package sim

import (
	"fmt"
	"math"

	"repro/internal/job"
)

// The discrete-event engine (§3g in DESIGN.md). The fixed-tick loop touches
// every live job and GPU on every tick even when nothing can possibly
// happen; at datacenter scale (10k GPUs, a million jobs) that is almost all
// of the work. This engine instead maintains a set of *wake-up sources* —
// the next arrival, the earliest predicted completion, requeue-backoff
// expiries, chaos fault/repair fires, the sampling timer, and the scheduler
// cadence — and jumps the clock straight to the earliest one, replaying the
// skipped ticks' per-job arithmetic in closed form.
//
// Bit-identical parity with the tick engine is the design constraint, not an
// aspiration. Three rules deliver it:
//
//  1. Every wake-up time is quantized to the tick grid before use, because
//     the tick engine can only observe an event on the first tick at or
//     after it happens.
//  2. The wake tick itself executes the *real* stepTick body — real advance,
//     chaos application, admission, scheduler gate, speed recompute,
//     sampling. The event machinery decides only *which* ticks run; what a
//     tick does is shared code. A spuriously early wake is therefore
//     harmless (the tick simply finds nothing to do), and only a *missed*
//     wake could break parity.
//  3. Skipped spans replay the identical floating-point operation sequence
//     the per-tick loop would have performed (see advanceJobTicks): integer-
//     valued accumulators use exact closed forms, and anything else falls
//     back to a literal per-tick subtraction loop.
//
// Scheduler rounds are elided only for policies implementing EventAware and
// only when decision tracing is off; with a recorder attached the engine
// wakes at every cadence point, so traced runs reproduce tick-engine digests
// byte-for-byte by construction.

// EngineKind selects the advancement strategy (Options.Engine).
type EngineKind int

const (
	// EngineEvent, the zero value, jumps between wake-up events, executing
	// only ticks on which something observable can happen.
	EngineEvent EngineKind = iota
	// EngineTick is the classic fixed-tick loop: every tick executes. It is
	// kept as the oracle the parity tests hold the event engine to.
	EngineTick
)

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "event":
		return EngineEvent, nil
	case "tick":
		return EngineTick, nil
	}
	return EngineEvent, fmt.Errorf("sim: unknown engine %q (want tick or event)", s)
}

// NoWake is the EventAware sentinel for "no time-driven decision pending".
const NoWake = int64(math.MaxInt64)

// EventAware is implemented by schedulers that can tell the event engine
// when their next *time-driven* decision is due, allowing the engine to
// elide provably no-op cadence rounds in between. The contract: given no
// external change (no arrival, completion, kill, backoff expiry or capacity
// change — all of which wake the engine regardless), calling Tick strictly
// before the returned time performs no engine action and leaves the
// scheduler's internal state (including any RNG position) unchanged.
//
// Return NoWake when no such decision is pending. Returning a time at or
// before env.Now() demands a round at every cadence point (polling).
// Conservative over-waking is always safe; under-waking is not.
type EventAware interface {
	NextWake(env *Env) int64
}

// runEvent is Run's body under EngineEvent.
func (s *Sim) runEvent() *Result {
	s.eventLoop(&Env{s: s}, s.opts.MaxHorizon)
	return s.collect()
}

// runEventUntil is RunUntil's body under EngineEvent. Like the tick loop it
// stops at the first tick boundary at or after t, the consistent point
// Snapshot serializes.
func (s *Sim) runEventUntil(t int64) bool {
	s.eventLoop(&Env{s: s}, t)
	return !s.live()
}

// eventLoop drives the engine until the clock reaches until, the horizon, or
// every job is terminal.
func (s *Sim) eventLoop(env *Env, until int64) {
	if until > s.opts.MaxHorizon {
		until = s.opts.MaxHorizon
	}
	_, isEventAware := s.sched.(EventAware)
	elide := isEventAware && s.opts.DecisionTrace == nil

	// A resumed (or freshly started) run has no predictions yet; running
	// jobs restored from a snapshot need theirs before the first jump.
	s.refreshPredictions()

	for s.live() && s.now < until {
		w := s.nextWake(env, until, elide)
		if skip := (w-s.now)/s.opts.Tick - 1; skip > 0 {
			s.bulkAdvance(skip)
		}
		if elide {
			s.catchUpCadence(w)
		}
		s.stepTick(env, false)
		s.refreshPredictions()
	}
}

// nextWake returns the next tick the engine must execute: the earliest
// quantized wake-up across every event source, never past the loop limit.
func (s *Sim) nextWake(env *Env, until int64, elide bool) int64 {
	tick := s.opts.Tick
	floor := s.now + tick

	// The loop limit is itself a wake: the tick engine keeps ticking until
	// the clock passes it, so the last executed tick is firstTickGE(limit).
	best := firstTickGE(until, tick)
	if best < floor {
		best = floor
	}
	consider := func(at int64) {
		if at < floor {
			at = floor
		}
		if at < best {
			best = at
		}
	}

	// Completions/preemptions since the last round force a scheduler call on
	// the very next tick (the dirty re-invocation rule).
	if s.dirty {
		return floor
	}

	// Next arrival.
	if s.arriveIdx < len(s.jobs) {
		consider(firstTickGE(s.jobs[s.arriveIdx].Submit, tick))
	}

	// Earliest requeue-backoff expiry.
	if top, ok := s.backoff.peek(); ok {
		consider(top.at)
	}

	// Earliest still-valid predicted completion. Stale entries (the job was
	// re-placed, resized or killed since) pop lazily here.
	for {
		top, ok := s.completions.peek()
		if !ok {
			break
		}
		if s.predSeqOf(top.id) == top.gen {
			consider(top.at)
			break
		}
		s.completions.pop()
	}

	// Utilization sampling cadence.
	consider(firstTickGE(s.lastSample+s.opts.SampleEvery, tick))

	// Scheduler cadence: with an EventAware policy (and tracing off) the
	// engine wakes only at the policy's own quantized request; otherwise —
	// and until a resumed policy has run once — at every cadence point.
	if elide && !s.unseen {
		if nw := s.sched.(EventAware).NextWake(env); nw != NoWake {
			consider(s.schedWakeTick(nw, best))
		}
	} else {
		consider(firstTickGE(s.lastSched+s.opts.SchedulerEvery, tick))
	}

	// Earliest chaos fire strictly before best (a fire at best is handled
	// by that tick's own applyChaos).
	if s.faults != nil {
		consider(s.chaosNext(best))
	}
	return best
}

// schedWakeTick maps a scheduler's requested wake time onto the tick the
// tick engine would first act on it: up to the tick grid, then forward to
// the first point of the virtual cadence grid — the sequence of rounds the
// tick engine would have executed (all no-ops, per the EventAware contract)
// since the last real one.
func (s *Sim) schedWakeTick(nw int64, cap int64) int64 {
	tick, se := s.opts.Tick, s.opts.SchedulerEvery
	t := firstTickGE(nw, tick)
	if t <= s.now { // polling request: next cadence point
		t = s.now + 1
	}
	g := firstTickGE(s.lastSched+se, tick)
	if se%tick == 0 {
		// Regular grid: lastSched is tick-aligned, so every step lands on
		// the grid and the walk collapses to one division.
		if g < t {
			g += (t - g + se - 1) / se * se
		}
		return g
	}
	for g < t && g < cap {
		g = firstTickGE(g+se, tick)
	}
	return g
}

// catchUpCadence replays the virtual cadence grid up to (but excluding) the
// wake tick w: rounds the tick engine executed there were no-ops under the
// EventAware contract, but each one still advanced its lastSched clock, and
// the gate arithmetic at w must see the same value or it would fire rounds
// the tick engine never ran.
func (s *Sim) catchUpCadence(w int64) {
	tick, se := s.opts.Tick, s.opts.SchedulerEvery
	g := firstTickGE(s.lastSched+se, tick)
	if se%tick == 0 {
		if g < w {
			last := g + (w-1-g)/se*se
			s.lastSched = last
		}
		return
	}
	for g < w {
		s.lastSched = g
		g = firstTickGE(g+se, tick)
	}
}

// bulkAdvance advances the clock k ticks during which, by construction of
// nextWake, nothing observable happens: no completion, arrival, expiry,
// chaos fire, sample point or scheduler round. Only running/profiling-job
// arithmetic needs replaying.
func (s *Sim) bulkAdvance(k int64) {
	dt := float64(s.opts.Tick)
	for i, j := range s.running.jobs {
		advanceJobTicks(j, s.running.recs[i].speed, k, dt)
	}
	for _, j := range s.profiling.jobs {
		advanceJobTicks(j, 1, k, dt)
	}
	s.now += k * s.opts.Tick
	if s.met != nil {
		s.met.ticks.Add(float64(k))
	}
}

// advanceJobTicks replays k per-tick advance iterations for one job at
// constant speed, producing bit-identical state to k calls of the advanceSet
// inner loop. The caller guarantees no completion occurs within the span.
// RunTime/AttainedGPUT accumulate integer quanta, so their closed forms are
// exact; RemainingWork uses a closed form only when both it and the per-tick
// progress are integer-valued (then every subtraction in the sequence is
// exact), and otherwise replays the literal subtraction loop — float
// subtraction does not distribute, and parity beats elegance.
func advanceJobTicks(j *job.Job, sp float64, k int64, dt float64) {
	j.RunTime += float64(k) * dt
	j.AttainedGPUT += float64(k) * dt * float64(j.GPUs)

	i := k
	for j.ColdStart >= dt && i > 0 { // cold-start-only ticks: no progress
		j.ColdStart -= dt
		i--
	}
	if i == 0 {
		return
	}
	if j.ColdStart > 0 { // transition tick: partial cold start, partial work
		eff := dt - j.ColdStart
		j.ColdStart = 0
		progress := sp * eff
		j.RemainingWork -= progress
		i--
	} else {
		progress := sp * dt
		j.RemainingWork -= progress
		i--
	}
	if i == 0 {
		return
	}
	p := sp * dt
	if isIntegral(j.RemainingWork) && isIntegral(p) {
		j.RemainingWork -= float64(i) * p
		return
	}
	for ; i > 0; i-- {
		j.RemainingWork -= p
	}
}

func isIntegral(x float64) bool { return x == math.Trunc(x) }

// ticksToFinish computes how many ticks from now until the job's completion
// tick (the tick on which advanceSet would retire it), replicating the
// per-tick arithmetic exactly. Returns -1 if completion is beyond limit
// ticks.
func ticksToFinish(rem, cs, sp, dt float64, limit int64) int64 {
	if sp <= 0 {
		sp = 1
	}
	var k int64
	for cs >= dt {
		cs -= dt
		k++
		if k > limit {
			return -1
		}
	}
	eff := dt - cs // full dt when no cold start remains
	if p := sp * eff; p >= rem {
		return k + 1
	} else {
		rem -= p
	}
	k++
	p := sp * dt
	if isIntegral(rem) && isIntegral(p) && p >= 1 {
		// Exact integer trajectory: ceil(rem/p) further ticks.
		ri, pi := int64(rem), int64(p)
		n := (ri + pi - 1) / pi
		if n < 1 {
			n = 1
		}
		if k+n > limit {
			return -1
		}
		return k + n
	}
	for {
		if p >= rem {
			return k + 1
		}
		rem -= p
		k++
		if k > limit {
			return -1
		}
	}
}

// refreshPredictions reconciles the completion heap with the current
// running/profiling population after an executed tick. A job needs a fresh
// prediction when it (re)entered a cluster — a new placement is a new record
// without one, which also covers same-tick kill-and-restart — or when
// recomputeSpeeds changed its speed (packing partner change, elastic
// resize). Running jobs first, then profiling ones, each in ID order: the
// sequence numbers handed out here are part of the heap's order.
// Predictions of jobs that left need no sweep: they went with the record.
func (s *Sim) refreshPredictions() {
	for _, set := range []*residents{&s.running, &s.profiling} {
		for i := range set.recs {
			if p := &set.recs[i]; p.predSeq == 0 || p.predSpeed != p.speed {
				s.predict(set.jobs[i], p)
			}
		}
	}
}

// predict computes the job's retire tick under its current trajectory and
// registers the wake-up. Predictions beyond the horizon are recorded (so the
// refresh scan stays cheap) but get no heap entry — the run ends first, and
// any speed change re-predicts.
func (s *Sim) predict(j *job.Job, p *placement) {
	tick := s.opts.Tick
	limit := (firstTickGE(s.opts.MaxHorizon, tick) - s.now) / tick
	s.predSeq++
	p.predSeq, p.predSpeed = s.predSeq, p.speed
	k := ticksToFinish(j.RemainingWork, j.ColdStart, p.speed, float64(tick), limit)
	if k > 0 {
		s.completions.push(tickEvent{at: s.now + k*tick, id: j.ID, gen: s.predSeq})
	}
}

// predSeqOf returns the sequence number of the resident job's live
// prediction, 0 if the job is not resident or has none: a heap entry is
// current exactly when it carries this number.
func (s *Sim) predSeqOf(id int) uint64 {
	p := s.running.rec(id)
	if p == nil {
		p = s.profiling.rec(id)
	}
	if p == nil {
		return 0
	}
	return p.predSeq
}

// chaosNext scans the run's deterministic fault schedule for the first tick
// in (now, bound) with an *observable* fault — one applyChaos would act on.
// It asks the same samplers applyChaos calls, which hold no state, so at the
// returned tick applyChaos draws the same samples. The resident-job and
// node-down sets are constant over the scanned span — every action that
// changes them happens on an executed tick, and repairs (which would re-arm
// crashed nodes) bound the scan themselves.
func (s *Sim) chaosNext(bound int64) int64 {
	inj, tick := s.faults, s.opts.Tick
	for _, at := range s.repairAt {
		if at = firstTickGE(at, tick); at < bound {
			bound = at // repairs are always observable
		}
	}

	var ids []int
	if s.opts.Chaos.JobCrashPerDay > 0 {
		ids = s.residentIDs()
	}
	down := s.main.NodeDown
	for t := s.now + tick; t < bound; t += tick {
		if len(inj.NodeCrashes(t, tick, down)) > 0 || len(inj.JobCrashes(t, tick, ids)) > 0 {
			return t
		}
		for _, g := range inj.GPUFailures(t, tick, down) {
			if len(s.main.JobsOnGPU(g)) > 0 {
				return t
			}
		}
	}
	return bound
}

// residentIDs returns running+profiling job ids ascending — the population
// crash-on-step faults are sampled over. A job is on one cluster at a time,
// so merging the two ordered sets yields a strictly ascending list.
func (s *Sim) residentIDs() []int {
	a, b := s.running.jobs, s.profiling.jobs
	ids := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].ID < b[0].ID {
			ids, a = append(ids, a[0].ID), a[1:]
		} else {
			ids, b = append(ids, b[0].ID), b[1:]
		}
	}
	for _, j := range a {
		ids = append(ids, j.ID)
	}
	for _, j := range b {
		ids = append(ids, j.ID)
	}
	return ids
}
