package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/job"
)

// quietChaos builds a spec that never fires spontaneously (all rates zero)
// but still supplies retry/backoff policy, so tests can invoke killJob
// deterministically.
func quietChaos(backoffSec int64) *chaos.Spec {
	return &chaos.Spec{
		MaxRetries:    10,
		BackoffSec:    backoffSec,
		MaxBackoffSec: backoffSec,
	}
}

// TestBackoffExpiryWakesScheduler is the satellite-2 regression test: a
// requeued job whose backoff expires between scheduler cadence points must
// start on its eligibility tick, not idle until the next cadence boundary.
// Runs under both engines — the wake-up is a first-class event in each.
func TestBackoffExpiryWakesScheduler(t *testing.T) {
	for _, eng := range []EngineKind{EngineTick, EngineEvent} {
		t.Run(eng.String(), func(t *testing.T) {
			tr := mkTrace(mkJob(1, 1, 0, 1000))
			s := New(tr, fifoLike{}, Options{
				Tick: 10, SchedulerEvery: 100, Engine: eng,
				Chaos: quietChaos(330),
			})
			if done := s.RunUntil(20); done {
				t.Fatal("finished before the kill point")
			}
			j := s.byID(1)
			if j.State != job.Running {
				t.Fatalf("state at t=20: %v, want Running", j.State)
			}
			// Kill at t=20: NextEligible = 20+330 = 350. The scheduler grid
			// (lastSched=10, cadence 100) next fires at 410; only the backoff
			// wake-up event gets the job started at 350.
			s.killJob(j, "test-kill")
			if j.NextEligible != 350 {
				t.Fatalf("NextEligible = %d, want 350", j.NextEligible)
			}
			res := s.Run()
			if res.Unfinished != 0 || j.State != job.Finished {
				t.Fatalf("job did not finish: state=%v", j.State)
			}
			// Restart-from-zero at t=350 + 1000s of work → finish at 1350. A
			// cadence-boundary start (the pre-fix behaviour) would finish at
			// 1410.
			if j.Finish != 1350 {
				t.Errorf("finish = %d, want 1350 (restart on the eligibility tick, not the cadence boundary)",
					j.Finish)
			}
		})
	}
}

// TestStepOnceDelegatesToStepTick pins the satellite-1 fix: StepOnce must be
// the real engine tick with the scheduler gate forced, not a drifted copy —
// it advances the clock, clears the dirty flag, runs the scheduler, and
// performs due sampling exactly like a Run tick would.
func TestStepOnceDelegatesToStepTick(t *testing.T) {
	tr := mkTrace(mkJob(1, 1, 0, 500), mkJob(2, 1, 0, 500))
	s := New(tr, fifoLike{}, Options{Tick: 10, SchedulerEvery: 1000, SampleEvery: 20})
	s.dirty = true
	s.StepOnce()
	if s.now != 10 {
		t.Fatalf("now = %d after one step, want 10", s.now)
	}
	if s.dirty {
		t.Error("dirty flag survived a forced scheduler round")
	}
	if len(s.running.jobs) != 2 {
		t.Fatalf("%d jobs running after forced round, want 2 (gate must be bypassed)", len(s.running.jobs))
	}
	if s.lastSched != 10 {
		t.Errorf("lastSched = %d, want 10", s.lastSched)
	}
	s.StepOnce()
	if s.lastSample != 20 {
		t.Errorf("lastSample = %d after 20s with SampleEvery=20, want 20", s.lastSample)
	}
	if s.utilSamples == 0 {
		t.Error("no utilization samples recorded")
	}
}

// TestEvheapDeterministicOrder is the satellite-4 property test: whatever
// order events are pushed in, the heap pops them sorted by (at, id, gen) —
// ties on the timestamp never depend on insertion order, so the engine's
// wake sequence is deterministic.
func TestEvheapDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		evs := make([]tickEvent, n)
		for i := range evs {
			// Small domains force plenty of at and (at,id) collisions.
			evs[i] = tickEvent{
				at:  int64(rng.Intn(5)) * 10,
				id:  rng.Intn(6),
				gen: uint64(rng.Intn(3)),
			}
		}
		want := append([]tickEvent(nil), evs...)
		sort.SliceStable(want, func(i, k int) bool { return evLess(want[i], want[k]) })

		var h evheap
		for _, e := range evs {
			h.push(e)
		}
		for i := 0; i < n; i++ {
			got := h.pop()
			// Equal elements are interchangeable; compare by ordering key.
			if evLess(got, want[i]) || evLess(want[i], got) {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, want[i])
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: heap not empty after %d pops", trial, n)
		}
	}
}

// refTickAdvance replays exactly one advanceSet inner-loop iteration for a
// non-completing job — the reference advanceJobTicks must match bit-for-bit.
func refTickAdvance(j *job.Job, sp, dt float64) {
	eff := dt
	if j.ColdStart > 0 {
		if j.ColdStart >= eff {
			j.ColdStart -= eff
			j.RunTime += dt
			j.AttainedGPUT += dt * float64(j.GPUs)
			return
		}
		eff -= j.ColdStart
		j.ColdStart = 0
	}
	j.RunTime += dt
	j.AttainedGPUT += dt * float64(j.GPUs)
	j.RemainingWork -= sp * eff
}

// TestAdvanceJobTicksBitExact drives advanceJobTicks against a literal
// per-tick replay over randomized (remaining, cold-start, speed, span)
// states, demanding bit-identical float accumulators — the property the
// skipped-span fast path rests on.
func TestAdvanceJobTicksBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dt = 60.0
	for trial := 0; trial < 500; trial++ {
		rem := float64(60 + rng.Intn(100000))
		if rng.Intn(2) == 0 {
			rem += rng.Float64() // non-integral remaining work
		}
		var cs float64
		switch rng.Intn(3) {
		case 1:
			cs = float64(rng.Intn(200))
		case 2:
			cs = rng.Float64() * 200
		}
		sp := 1.0
		if rng.Intn(2) == 0 {
			sp = 0.5 + rng.Float64()*0.7 // packed/straggler slowdown
		}
		k := int64(1 + rng.Intn(50))

		a := &job.Job{GPUs: 1 + rng.Intn(8), RemainingWork: rem, ColdStart: cs}
		b := &job.Job{GPUs: a.GPUs, RemainingWork: rem, ColdStart: cs}

		// Only spans with no completion inside are ever bulk-advanced; skip
		// states where the reference would finish within k ticks.
		if fin := ticksToFinish(rem, cs, sp, dt, 1<<40); fin <= k {
			k = fin - 1
			if k <= 0 {
				continue
			}
		}
		advanceJobTicks(a, sp, k, dt)
		for i := int64(0); i < k; i++ {
			refTickAdvance(b, sp, dt)
		}
		if math.Float64bits(a.RemainingWork) != math.Float64bits(b.RemainingWork) ||
			math.Float64bits(a.RunTime) != math.Float64bits(b.RunTime) ||
			math.Float64bits(a.AttainedGPUT) != math.Float64bits(b.AttainedGPUT) ||
			math.Float64bits(a.ColdStart) != math.Float64bits(b.ColdStart) {
			t.Fatalf("trial %d (rem=%v cs=%v sp=%v k=%d): bulk %+v vs loop %+v",
				trial, rem, cs, sp, k, a, b)
		}
	}
}

// TestTicksToFinishMatchesLoop checks the completion predictor against the
// literal per-tick engine rule (progress >= remaining retires the job on
// that tick) over randomized states.
func TestTicksToFinishMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dt = 60.0
	for trial := 0; trial < 500; trial++ {
		rem := float64(1 + rng.Intn(20000))
		if rng.Intn(2) == 0 {
			rem += rng.Float64()
		}
		var cs float64
		if rng.Intn(2) == 0 {
			cs = rng.Float64() * 300
		}
		sp := 1.0
		if rng.Intn(2) == 0 {
			sp = 0.4 + rng.Float64()
		}

		j := &job.Job{GPUs: 1, RemainingWork: rem, ColdStart: cs}
		var want int64
		for want = 1; ; want++ {
			eff := dt
			if j.ColdStart > 0 {
				if j.ColdStart >= eff {
					j.ColdStart -= eff
					continue
				}
				eff -= j.ColdStart
				j.ColdStart = 0
			}
			if sp*eff >= j.RemainingWork {
				break
			}
			j.RemainingWork -= sp * eff
		}
		if got := ticksToFinish(rem, cs, sp, dt, 1<<40); got != want {
			t.Fatalf("trial %d (rem=%v cs=%v sp=%v): ticksToFinish=%d, per-tick loop=%d",
				trial, rem, cs, sp, got, want)
		}
	}
}

// TestEventEngineHorizonParity: both engines must truncate an endless run at
// the same tick with identical partial accounting.
func TestEventEngineHorizonParity(t *testing.T) {
	run := func(eng EngineKind) *job.Job {
		tr := mkTrace(mkJob(1, 1, 0, 1_000_000))
		s := New(tr, fifoLike{}, Options{Tick: 10, MaxHorizon: 505, Engine: eng})
		s.Run()
		return s.byID(1)
	}
	a, b := run(EngineTick), run(EngineEvent)
	if math.Float64bits(a.RunTime) != math.Float64bits(b.RunTime) ||
		math.Float64bits(a.RemainingWork) != math.Float64bits(b.RemainingWork) {
		t.Fatalf("horizon truncation differs: tick %+v vs event %+v", a, b)
	}
	if a.Finish != -1 || b.Finish != -1 {
		t.Fatal("job should not have finished before the horizon")
	}
}
