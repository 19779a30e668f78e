package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTiresiasDemotionCrossingWakesEngine pins the pending-decision rule for
// LAS demotions. One GPU, two jobs: A runs, B waits in the same queue. When
// A's attained service crosses the demotion threshold, the next scheduler
// round must evict A for B. The trap: a sampling wake-up lands between the
// crossing and that round, and at that instant A is already past the
// threshold — a NextWake that only reports *future* crossings (or filters
// against Now instead of the last scheduler round) returns nothing, the
// engine sleeps to the next sample, and B starts thousands of seconds late.
func TestTiresiasDemotionCrossingWakesEngine(t *testing.T) {
	spec := cluster.Spec{GPUsPerNode: 1, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc", Nodes: 1}}}
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	mkTrace := func() *trace.Trace {
		return &trace.Trace{Name: "demote", Cluster: spec, Days: 1, Jobs: []*job.Job{
			job.New(1, "a", "u", "vc", 1, 0, 20000, cfg),
			job.New(2, "b", "u", "vc", 1, 10, 5000, cfg),
		}}
	}
	mkSched := func() *Tiresias {
		tir := NewTiresias()
		tir.thresholds = []float64{3650}
		return tir
	}
	// SampleEvery is chosen to land a wake-up just after the crossing but
	// before the round that consumes it.
	opts := sim.Options{Tick: 1, SchedulerEvery: 100, SampleEvery: 3660}

	starts := map[sim.EngineKind]int64{}
	for _, eng := range []sim.EngineKind{sim.EngineTick, sim.EngineEvent} {
		o := opts
		o.Engine = eng
		res := sim.New(mkTrace(), mkSched(), o).Run()
		if res.Unfinished != 0 {
			t.Fatalf("%v: %d unfinished", eng, res.Unfinished)
		}
		a, b := res.Jobs[0], res.Jobs[1]
		if a.Preemptions != 1 {
			t.Fatalf("%v: A preempted %d times, want 1 (demotion eviction)", eng, a.Preemptions)
		}
		// A starts by the first round, crosses at start+3650; the eviction
		// round follows within one cadence interval.
		if b.FirstStart > a.FirstStart+3650+opts.SchedulerEvery+opts.Tick {
			t.Fatalf("%v: B started at %d (A at %d) — demotion round missed",
				eng, b.FirstStart, a.FirstStart)
		}
		starts[eng] = b.FirstStart
	}
	if starts[sim.EngineTick] != starts[sim.EngineEvent] {
		t.Fatalf("engines disagree on B's start: tick=%d event=%d",
			starts[sim.EngineTick], starts[sim.EngineEvent])
	}
}
