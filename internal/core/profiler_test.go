package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestProfilerRetune(t *testing.T) {
	p := newProfiler(DefaultConfig()) // Tprof 200 s

	p.Retune(LoadHigh)
	if p.CurrentTprof() != 100 {
		t.Fatalf("burst Tprof = %d, want halved", p.CurrentTprof())
	}
	if p.capacityFrac != 1.0 {
		t.Fatal("burst should borrow the full partition")
	}

	p.Retune(LoadLow)
	if p.CurrentTprof() != 200 || p.capacityFrac != 0.5 {
		t.Fatalf("idle retune wrong: Tprof=%d frac=%v", p.CurrentTprof(), p.capacityFrac)
	}

	// Time-aware scaling off → static settings regardless of load.
	p.timeAware = false
	p.Retune(LoadHigh)
	if p.CurrentTprof() != 200 || p.capacityFrac != 0.75 {
		t.Fatal("static profiler must ignore load level")
	}
}

func TestProfilerTprofFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TprofSec = 80
	p := newProfiler(cfg)
	p.Retune(LoadHigh)
	if p.CurrentTprof() < 60 {
		t.Fatalf("Tprof floor violated: %d", p.CurrentTprof())
	}
}

// profilerHarness builds a minimal sim whose scheduler only runs the
// profiler stage, for white-box queue-policy tests.
type profilerOnly struct {
	p        *Profiler
	profiled []int
}

func (po *profilerOnly) Name() string { return "profiler-only" }
func (po *profilerOnly) Tick(env *sim.Env) {
	po.p.Step(env, waiting(env), func(j *job.Job) { po.profiled = append(po.profiled, j.ID) })
}

func TestSpaceAwareOrdering(t *testing.T) {
	// An 8-GPU job and two 1-GPU jobs compete for an 8-GPU profiling
	// partition. Space-aware profiling runs the small jobs first.
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	big := job.New(1, "big", "u", "vc", 8, 0, 5000, cfg)
	small1 := job.New(2, "s1", "u", "vc", 1, 0, 5000, cfg)
	small2 := job.New(3, "s2", "u", "vc", 1, 0, 5000, cfg)
	tr := &trace.Trace{
		Name: "t",
		Cluster: cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
			VCs: []cluster.VCSpec{{Name: "vc", Nodes: 2}}},
		Jobs: []*job.Job{big, small1, small2},
		Days: 1,
	}
	pcfg := DefaultConfig()
	pcfg.TprofSec = 100
	pcfg.DisableTimeAware = true
	po := &profilerOnly{p: newProfiler(pcfg)}
	po.p.capacityFrac = 1.0
	s := sim.New(tr, po, sim.Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1})
	s.StepOnce()
	s.StepOnce()

	// Drive until the profiling timeout evicts the first batch; the order
	// in which jobs emerge profiled reveals the queue policy.
	for i := 0; i < 30; i++ {
		s.StepOnce()
	}
	if len(po.profiled) < 2 {
		t.Fatalf("profiled %d jobs, want ≥2", len(po.profiled))
	}
	// Small jobs finish profiling before the big one.
	firstTwo := map[int]bool{po.profiled[0]: true, po.profiled[1]: true}
	if !firstTwo[2] || !firstTwo[3] {
		t.Fatalf("space-aware order violated: %v", po.profiled)
	}
}

func TestOversizedJobsSkipProfiling(t *testing.T) {
	cfg := workload.Config{Model: workload.BERT, BatchSize: 32}
	big := job.New(1, "big", "u", "vc", 16, 0, 5000, cfg)
	tr := &trace.Trace{
		Name: "t",
		Cluster: cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
			VCs: []cluster.VCSpec{{Name: "vc", Nodes: 4}}},
		Jobs: []*job.Job{big},
		Days: 1,
	}
	po := &profilerOnly{p: newProfiler(DefaultConfig())} // Nprof = 8 < 16
	s := sim.New(tr, po, sim.Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1})
	s.StepOnce()
	s.StepOnce()
	if len(po.profiled) != 1 || po.profiled[0] != 1 {
		t.Fatalf("oversized job not admitted on the fly: %v", po.profiled)
	}
}

func TestFairnessAgingImprovesTail(t *testing.T) {
	g := trace.NewGenerator(miniVenus())
	hist := g.Emit(3000)
	eval := g.Emit(3000)
	models, err := TrainModels(hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(aging float64) *sim.Result {
		cfg := DefaultConfig()
		cfg.FairnessAgingSec = aging
		return sim.New(eval, New(models, cfg), sim.Options{
			Tick: 60, SchedulerEvery: 60, ProfilerNodes: 2}).Run()
	}
	base := run(0)
	aged := run(2.0)
	// Aging must not blow up the average…
	if aged.AvgJCTSec > base.AvgJCTSec*1.5 {
		t.Fatalf("aging wrecked avg JCT: %.0f vs %.0f", aged.AvgJCTSec, base.AvgJCTSec)
	}
	// …and must not worsen the extreme tail materially.
	if aged.P999QueueSec > base.P999QueueSec*1.25 {
		t.Fatalf("aging worsened p99.9: %.0f vs %.0f", aged.P999QueueSec, base.P999QueueSec)
	}
}
