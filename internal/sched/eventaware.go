package sched

import (
	"math"

	"repro/internal/sim"
)

// sim.EventAware implementations. The contract (see internal/sim/engine.go):
// with no external change, Tick strictly before the returned time is a
// provable no-op — no placement, no preemption, no internal-state or RNG
// drift — so the event engine may elide the round entirely.
//
// FIFO, SJF, QSSF and Horus are time-independent: their orderings derive
// from static job attributes (submit time, true/estimated duration, cached
// noisy predictions), so with an unchanged queue and cluster a re-run places
// nothing new. They never need a time-driven wake-up.

// NextWake implements sim.EventAware.
func (*FIFO) NextWake(*sim.Env) int64 { return sim.NoWake }

// NextWake implements sim.EventAware.
func (*SJF) NextWake(*sim.Env) int64 { return sim.NoWake }

// NextWake implements sim.EventAware.
func (*QSSF) NextWake(*sim.Env) int64 { return sim.NoWake }

// NextWake implements sim.EventAware. Horus's noisy predictions are drawn
// once per job on first sight and cached, so an elided round (which by
// definition sees no new jobs) draws nothing and the RNG position is
// preserved.
func (*Horus) NextWake(*sim.Env) int64 { return sim.NoWake }

// NextWake implements sim.EventAware. Tiresias is time-driven three ways,
// each a predictable clock crossing:
//
//   - attained-service demotion: a running job's AttainedGPUT grows at
//     exactly GPUs/sec (cold-start ticks accrue service too), so the tick
//     it crosses a queue threshold is computable;
//   - PROMOTE anti-starvation: a waiting job is lifted to the top queue
//     once it has waited promoteSec (strict >, hence the +1);
//   - the MinRunQuantum preemption shield expiring on a running job, which
//     can unblock an eviction that was desired but suppressed.
//
// And once by its own hand: a job started out of PROMOTE is ranked by its
// attained service again the moment it runs, so the round after the one that
// started it orders the VC differently with nothing else changed — a fresh
// job the promoted one had displaced from the desired set can then take a
// GPU that a desired but unplaceable job left free. That round is requested
// explicitly (found by the Helios-shaped case of TestEventEngineFastParity).
//
// Over-waking is safe (a round that finds nothing to do is a no-op), so
// each crossing is reported without checking whether it will actually
// change a decision. With no waiting jobs none of these can change the
// placement — every running job stays desired — so no wake is needed at
// all.
func (t *Tiresias) NextWake(env *sim.Env) int64 {
	now := env.Now()
	queues := env.Queues()
	if len(queues) == 0 {
		return sim.NoWake
	}
	// A crossing is pending until a scheduler round has run at or after it —
	// not until the clock has passed it. The engine can execute ticks between
	// cadence points (sampling, arrivals elsewhere) without a round running;
	// a quantum that expired during such a gap must still force the next
	// round, or the eviction it unblocks slips to a later event.
	lastRound := env.LastSchedulerRun()
	next := int64(math.MaxInt64)
	consider := func(at int64) {
		if at > lastRound && at < next {
			next = at
		}
	}
	for _, j := range env.Running() {
		// Report every threshold's crossing time, crossed ones included:
		// attained service grows at GPUs/sec, so the crossing of thr is at
		// now + (thr−attained)/GPUs — negative offset when already crossed.
		// A crossing that happened after the last round is a pending
		// demotion no round has seen yet; the filter above keeps exactly
		// those (ceil rounds up, so a computed time is never earlier than
		// the true crossing — a pending one cannot slip under lastRound).
		// Future crossings beyond the nearest are reported too; consider
		// takes the minimum, so they cost nothing.
		for _, thr := range t.thresholds {
			consider(now + int64(math.Ceil((thr-j.AttainedGPUT)/float64(j.GPUs))))
		}
		if started, ok := t.startedAt[j.ID]; ok {
			consider(started + minRunQuantumSec)
			if started == lastRound {
				if stopped, ok := t.stoppedAt[j.ID]; ok && started-stopped > t.promoteSec {
					consider(started + 1)
				}
			}
		}
	}
	for _, q := range queues {
		for _, j := range q.Jobs {
			if j.FirstStart < 0 {
				consider(j.Submit + t.promoteSec + 1)
			}
			if stopped, ok := t.stoppedAt[j.ID]; ok {
				consider(stopped + t.promoteSec + 1)
			}
		}
	}
	if next == math.MaxInt64 {
		return sim.NoWake
	}
	return next
}
