// Property tests: randomized workloads through every in-tree scheduler with
// the engine's InvariantChecker in fatal mode. The checker validates per-GPU
// capacity, sharing limits, lifecycle ordering and non-intrusive restart
// semantics after every tick, so any scheduler or engine bug that bends the
// cluster's physics fails loudly here.
//
// External test package: the schedulers (sched, core) import sim, so these
// tests cannot live in package sim.
package sim_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// propSpec is the property-test cluster: 2 VCs × 2 nodes × 8 GPUs.
func propSpec() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc0", Nodes: 2}, {Name: "vc1", Nodes: 2}}}
}

// randomTrace emits n jobs with adversarial variety: GPU demands from 1 to
// 16 (16 = distributed), durations from sub-tick to hours, bursty submits.
func randomTrace(r *xrand.RNG, n int) *trace.Trace {
	cfgs := workload.AllConfigs()
	demands := []int{1, 1, 2, 2, 4, 8, 16}
	vcs := []string{"vc0", "vc1"}
	jobs := make([]*job.Job, n)
	submit := int64(0)
	for i := 0; i < n; i++ {
		submit += r.Int63n(900) // bursty: many same-tick arrivals
		dur := 30 + r.Int63n(20000)
		cfg := cfgs[r.Intn(len(cfgs))]
		j := job.New(i+1, fmt.Sprintf("job-%d", i+1), "u", vcs[r.Intn(len(vcs))],
			demands[r.Intn(len(demands))], submit, dur, cfg)
		jobs[i] = j
	}
	return &trace.Trace{Name: "prop", Cluster: propSpec(), Jobs: jobs, Days: 1}
}

// propModels trains Lucid's models once for the whole test binary.
var propModels struct {
	sync.Once
	m   *core.Models
	err error
}

func lucidModels(t *testing.T) *core.Models {
	t.Helper()
	propModels.Do(func() {
		spec := trace.Venus()
		spec.Name = "prop"
		spec.Nodes = 4
		spec.NumVCs = 2
		spec.NumJobs = 600
		spec.Days = 3
		hist := trace.NewGenerator(spec).Emit(600)
		propModels.m, propModels.err = core.TrainModels(hist, core.DefaultConfig())
	})
	if propModels.err != nil {
		t.Fatal(propModels.err)
	}
	return propModels.m
}

// propSchedulers builds a fresh instance of every in-tree scheduler.
func propSchedulers(t *testing.T) []struct {
	name string
	mk   func() (sim.Scheduler, sim.Options)
} {
	opts := sim.Options{Tick: 30, SchedulerEvery: 60}
	lucidOpts := opts
	lucidOpts.ProfilerNodes = 1
	models := lucidModels(t)
	return []struct {
		name string
		mk   func() (sim.Scheduler, sim.Options)
	}{
		{"FIFO", func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), opts }},
		{"SJF", func() (sim.Scheduler, sim.Options) { return sched.NewSJF(), opts }},
		{"QSSF", func() (sim.Scheduler, sim.Options) { return sched.NewQSSF(sched.OracleEstimator{}), opts }},
		{"Tiresias", func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), opts }},
		{"Lucid", func() (sim.Scheduler, sim.Options) {
			return core.New(models.Clone(), core.DefaultConfig()), lucidOpts
		}},
	}
}

// TestSchedulerInvariants drives every scheduler over several randomized
// workloads with the fatal invariant checker armed.
func TestSchedulerInvariants(t *testing.T) {
	for _, ps := range propSchedulers(t) {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := xrand.New(seed)
				tr := randomTrace(r, 120)
				s, opts := ps.mk()
				opts.Invariants = sim.NewInvariantChecker(true)
				res := sim.New(tr, s, opts).Run()
				if res.Violations > 0 {
					t.Fatalf("seed %d: %d violations: %v", seed, res.Violations, res.ViolationSamples)
				}
				if res.Unfinished > 0 {
					t.Logf("seed %d: %d jobs unfinished at horizon (allowed)", seed, res.Unfinished)
				}
			}
		})
	}
}

// TestEmptyTrace: a trace with no jobs must terminate immediately with
// clean aggregates, not hang or divide by zero.
func TestEmptyTrace(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Cluster: propSpec(), Days: 1}
	opts := sim.Options{Tick: 30, Invariants: sim.NewInvariantChecker(true)}
	res := sim.New(tr, sched.NewFIFO(), opts).Run()
	if res.Violations > 0 || res.Unfinished != 0 || len(res.Jobs) != 0 {
		t.Fatalf("empty trace: %+v", res)
	}
}

// TestOverCapacityDemand: a job demanding more GPUs than the cluster has can
// never run; the engine must neither place it nor violate invariants, and
// the run must still terminate (at the horizon) with the job unfinished.
func TestOverCapacityDemand(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	over := job.New(1, "giant", "u", "vc0", 64, 0, 600, cfg) // cluster has 32
	ok := job.New(2, "small", "u", "vc0", 2, 0, 600, cfg)
	tr := &trace.Trace{Name: "over", Cluster: propSpec(),
		Jobs: []*job.Job{over, ok}, Days: 1}
	for _, ps := range propSchedulers(t) {
		s, opts := ps.mk()
		opts.MaxHorizon = 7200
		opts.Invariants = sim.NewInvariantChecker(true)
		res := sim.New(tr, s, opts).Run()
		if res.Violations > 0 {
			t.Fatalf("%s: violations: %v", ps.name, res.ViolationSamples)
		}
		for _, j := range res.Jobs {
			if j.ID == 1 && j.State == job.Finished {
				t.Fatalf("%s: 64-GPU job finished on a 32-GPU cluster", ps.name)
			}
		}
	}
}

// TestZeroGPUDemand: a malformed zero-GPU job must not corrupt cluster
// accounting whatever the scheduler does with it.
func TestZeroGPUDemand(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	zero := job.New(1, "zero", "u", "vc0", 0, 0, 600, cfg)
	ok := job.New(2, "small", "u", "vc0", 1, 0, 600, cfg)
	tr := &trace.Trace{Name: "zero", Cluster: propSpec(),
		Jobs: []*job.Job{zero, ok}, Days: 1}
	for _, ps := range propSchedulers(t) {
		s, opts := ps.mk()
		opts.MaxHorizon = 7200
		opts.Invariants = sim.NewInvariantChecker(true)
		res := sim.New(tr, s, opts).Run()
		if res.Violations > 0 {
			t.Fatalf("%s: violations: %v", ps.name, res.ViolationSamples)
		}
	}
}

// TestArrivalAfterHorizon: a job submitted beyond MaxHorizon must never
// enter the system — it stays Pending with no start and no allocation.
func TestArrivalAfterHorizon(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	early := job.New(1, "early", "u", "vc0", 1, 0, 300, cfg)
	late := job.New(2, "late", "u", "vc0", 1, 50_000, 300, cfg)
	tr := &trace.Trace{Name: "late", Cluster: propSpec(),
		Jobs: []*job.Job{early, late}, Days: 1}
	opts := sim.Options{Tick: 30, MaxHorizon: 3600,
		Invariants: sim.NewInvariantChecker(true)}
	res := sim.New(tr, sched.NewFIFO(), opts).Run()
	if res.Violations > 0 {
		t.Fatalf("violations: %v", res.ViolationSamples)
	}
	if res.Unfinished != 1 {
		t.Fatalf("unfinished = %d, want 1 (the post-horizon job)", res.Unfinished)
	}
	for _, j := range res.Jobs {
		if j.ID == 2 && (j.State != job.Pending || j.FirstStart >= 0) {
			t.Fatalf("post-horizon job entered the system: %+v", j)
		}
	}
}

// TestSharedChaosSpecConcurrentRuns: a run only reads its chaos spec, so
// one spec serves runs on several goroutines at once, and each run's
// summary equals the serial run's. Under -race this also checks that no
// fault state is shared between the runs.
func TestSharedChaosSpecConcurrentRuns(t *testing.T) {
	tr := drainTrace(xrand.New(21), 300)
	spec := chaos.DefaultSpec()
	spec.NodeFailPerDay, spec.GPUFailPerDay, spec.JobCrashPerDay = 40, 4, 20
	spec.RepairSec, spec.MaxRetries, spec.BackoffSec = 600, 3, 60
	spec.StragglerFrac, spec.StragglerSlowdown = 0.25, 0.5
	run := func() *sim.Result {
		return sim.New(tr, sched.NewFIFO(), sim.Options{Tick: 30, SchedulerEvery: 60, Chaos: &spec}).Run()
	}
	serial := run()
	if serial.NodeFailures == 0 || serial.GPUFailures == 0 || serial.JobKills == 0 {
		t.Fatalf("schedule too quiet to mean anything: %s", serial.Summary())
	}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run().Summary()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != serial.Summary() {
			t.Fatalf("run %d: %s\nserial: %s", i, g, serial.Summary())
		}
	}
}
