package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func specOneNode() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc", Nodes: 1}}}
}

func mk(id, gpus int, submit, dur int64) *job.Job {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	return job.New(id, "j", "u", "vc", gpus, submit, dur, cfg)
}

// holTrace: a long job arrives first, then a burst of short jobs — the HOL
// blocking scenario.
func holTrace() *trace.Trace {
	jobs := []*job.Job{mk(1, 8, 0, 20000)}
	for i := 2; i <= 11; i++ {
		jobs = append(jobs, mk(i, 8, 10, 200))
	}
	return &trace.Trace{Name: "hol", Cluster: specOneNode(), Jobs: jobs, Days: 1}
}

func run(t *testing.T, tr *trace.Trace, s sim.Scheduler) *sim.Result {
	t.Helper()
	// Fatal invariants: among them, every speed the engine recorded equals
	// the one its placement gives when recomputed from scratch.
	res := sim.New(tr, s, sim.Options{Tick: 10, SchedulerEvery: 30,
		Invariants: sim.NewInvariantChecker(true)}).Run()
	if res.Unfinished != 0 {
		t.Fatalf("%s left %d unfinished", s.Name(), res.Unfinished)
	}
	return res
}

func TestSJFBeatsFIFOUnderHOL(t *testing.T) {
	fifo := run(t, holTrace(), NewFIFO())
	sjf := run(t, holTrace(), NewSJF())
	if sjf.AvgJCTSec*2 > fifo.AvgJCTSec {
		t.Fatalf("SJF (%.0fs) should crush FIFO (%.0fs) under HOL blocking",
			sjf.AvgJCTSec, fifo.AvgJCTSec)
	}
}

func TestQSSFWithOracleMatchesSJF(t *testing.T) {
	sjf := run(t, holTrace(), NewSJF())
	qssf := run(t, holTrace(), NewQSSF(OracleEstimator{}))
	// Same information → near-identical outcome (priority adds a ×GPUs
	// factor that is constant here).
	if diff := qssf.AvgJCTSec - sjf.AvgJCTSec; diff > sjf.AvgJCTSec*0.05 || diff < -sjf.AvgJCTSec*0.05 {
		t.Fatalf("QSSF(oracle)=%.0fs vs SJF=%.0fs", qssf.AvgJCTSec, sjf.AvgJCTSec)
	}
}

func TestTiresiasPreemptsLongForShort(t *testing.T) {
	fifo := run(t, holTrace(), NewFIFO())
	tir := run(t, holTrace(), NewTiresias())
	// Tiresias evicts the long job, so short jobs finish orders of magnitude
	// sooner than under FIFO.
	if tir.AvgJCTSec*3 > fifo.AvgJCTSec {
		t.Fatalf("Tiresias (%.0fs) should beat FIFO (%.0fs)", tir.AvgJCTSec, fifo.AvgJCTSec)
	}
	// And it must actually have preempted.
	preempts := 0
	for _, j := range tir.Jobs {
		preempts += j.Preemptions
	}
	if preempts == 0 {
		t.Fatal("Tiresias never preempted in a HOL scenario")
	}
}

func TestTiresiasOverheadVisible(t *testing.T) {
	// The preempted long job pays the 62 s cold start at least once.
	tir := run(t, holTrace(), NewTiresias())
	long := tir.Jobs[0]
	if long.JCT() < long.Duration+62 {
		t.Fatalf("long job JCT %d shows no preemption overhead (duration %d)",
			long.JCT(), long.Duration)
	}
}

// packableTrace: pairs of low-utilization jobs that profit from sharing.
func packableTrace() *trace.Trace {
	cfgLight := workload.Config{Model: workload.PointNet, BatchSize: 64}
	var jobs []*job.Job
	for i := 1; i <= 8; i++ {
		j := job.New(i, "light", "u", "vc", 4, 0, 2000, cfgLight)
		jobs = append(jobs, j)
	}
	return &trace.Trace{Name: "packable", Cluster: specOneNode(), Jobs: jobs, Days: 1}
}

func TestHorusPacksWhenBeneficial(t *testing.T) {
	// 8 × 4-GPU jobs on 8 GPUs: exclusively they run 2 at a time (4
	// rounds); packed they run 4 at a time at ~full speed.
	fifo := run(t, packableTrace(), NewFIFO())
	horus := run(t, packableTrace(), NewHorus(OracleEstimator{}, 1))
	if horus.AvgJCTSec >= fifo.AvgJCTSec*0.8 {
		t.Fatalf("Horus (%.0fs) should pack and beat FIFO (%.0fs)", horus.AvgJCTSec, fifo.AvgJCTSec)
	}
}

func TestPolluxElasticityAvoidsQueueing(t *testing.T) {
	// More 8-GPU jobs than the cluster can run exclusively: Pollux shrinks
	// allocations so everyone runs; queue delay stays near zero.
	var jobs []*job.Job
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, job.New(i, "e", "u", "vc", 8, 0, 1000, cfg))
	}
	tr := &trace.Trace{Name: "elastic", Cluster: specOneNode(), Jobs: jobs, Days: 1}
	pollux := run(t, tr, NewPollux())
	if pollux.AvgQueueSec > 120 {
		t.Fatalf("Pollux avg queue %.0fs; elasticity should admit everyone", pollux.AvgQueueSec)
	}
	fifo := run(t, tr, NewFIFO())
	if fifo.AvgQueueSec < pollux.AvgQueueSec {
		t.Fatal("FIFO cannot queue less than Pollux here")
	}
}

func TestPolluxLightLoadRunsFullSize(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	jobs := []*job.Job{job.New(1, "e", "u", "vc", 8, 0, 1000, cfg)}
	tr := &trace.Trace{Name: "light", Cluster: specOneNode(), Jobs: jobs, Days: 1}
	res := run(t, tr, NewPollux())
	// Alone on the cluster → full allocation → JCT ≈ duration.
	if jct := res.Jobs[0].JCT(); jct > 1100 {
		t.Fatalf("solo elastic job JCT = %d, want ≈1000", jct)
	}
}

func TestSchedulersRespectVCBoundaries(t *testing.T) {
	spec := cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "a", Nodes: 1}, {Name: "b", Nodes: 1}}}
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	jobs := []*job.Job{
		job.New(1, "x", "u", "a", 8, 0, 5000, cfg),
		job.New(2, "y", "u", "a", 8, 0, 100, cfg), // must wait despite b idle
		job.New(3, "z", "u", "b", 1, 0, 100, cfg),
	}
	tr := &trace.Trace{Name: "vc", Cluster: spec, Jobs: jobs, Days: 1}
	for _, s := range []sim.Scheduler{NewFIFO(), NewSJF(), NewQSSF(OracleEstimator{}), NewTiresias()} {
		res := sim.New(tr, s, sim.Options{Tick: 10, SchedulerEvery: 30}).Run()
		j3 := res.Jobs[2]
		if j3.QueueDelay() > 60 {
			t.Fatalf("%s: job in idle VC b queued %ds", s.Name(), j3.QueueDelay())
		}
	}
}

func TestHorusPredictionNoiseDeterministic(t *testing.T) {
	h1 := NewHorus(OracleEstimator{}, 42)
	h2 := NewHorus(OracleEstimator{}, 42)
	j := mk(1, 1, 0, 100)
	p1 := h1.predict(j)
	p2 := h2.predict(j)
	if p1 != p2 {
		t.Fatal("Horus prediction not deterministic for equal seeds")
	}
	// Cached across calls.
	if h1.predict(j) != p1 {
		t.Fatal("Horus prediction not cached")
	}
}
