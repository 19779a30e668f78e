// Chaos property tests: randomized fault schedules through every in-tree
// scheduler with the engine's fatal InvariantChecker armed. Faults stress
// exactly the paths the fault-free property tests never reach — capacity
// revocation mid-placement, kills of packed and distributed jobs, requeue
// churn through the profiler — so any scheduler or engine state that cannot
// survive a shrinking cluster fails loudly here.
//
// External test package: the schedulers (sched, core) import sim, which
// imports chaos, so these tests cannot live in package chaos.
package chaos_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func propSpec() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc0", Nodes: 2}, {Name: "vc1", Nodes: 2}}}
}

// randomTrace mirrors the sim property-test generator: adversarial variety
// in demand (incl. distributed), duration and burstiness.
func randomTrace(r *xrand.RNG, n int) *trace.Trace {
	cfgs := workload.AllConfigs()
	demands := []int{1, 1, 2, 2, 4, 8, 16}
	vcs := []string{"vc0", "vc1"}
	jobs := make([]*job.Job, n)
	submit := int64(0)
	for i := 0; i < n; i++ {
		submit += r.Int63n(900)
		dur := 30 + r.Int63n(20000)
		cfg := cfgs[r.Intn(len(cfgs))]
		jobs[i] = job.New(i+1, fmt.Sprintf("job-%d", i+1), "u", vcs[r.Intn(len(vcs))],
			demands[r.Intn(len(demands))], submit, dur, cfg)
	}
	return &trace.Trace{Name: "chaos-prop", Cluster: propSpec(), Jobs: jobs, Days: 1}
}

var propModels struct {
	sync.Once
	m   *core.Models
	err error
}

func lucidModels(t *testing.T) *core.Models {
	t.Helper()
	propModels.Do(func() {
		spec := trace.Venus()
		spec.Name = "chaos-prop"
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

// chaosSpecFor derives a randomized-but-reproducible fault spec from a seed:
// heavy enough that node crashes, GPU faults, job crashes and exhaustions
// all actually occur within the one-day trace.
func chaosSpecFor(seed uint64) chaos.Spec {
	r := xrand.New(seed * 977)
	spec := chaos.DefaultSpec()
	spec.Seed = seed
	spec.NodeFailPerDay = 2 + r.Float64()*6
	spec.RepairSec = 300 + r.Int63n(1800)
	spec.GPUFailPerDay = r.Float64() * 2
	spec.JobCrashPerDay = 2 + r.Float64()*8
	spec.MaxRetries = int(r.Int63n(4)) // 0..3: exhaustion is reachable
	spec.BackoffSec = 30 + r.Int63n(300)
	spec.MaxBackoffSec = 3600
	spec.StragglerFrac = r.Float64() * 0.5
	spec.StragglerSlowdown = 0.5 + r.Float64()*0.5
	return spec
}

// TestChaosSchedulerInvariants drives every scheduler over randomized
// workloads and randomized fault schedules with the fatal invariant checker
// armed, then audits the run for the chaos-specific conservation laws:
//
//   - no lost jobs: every job ends Finished, Failed, or in a legal waiting/
//     running state at the horizon — never an orphaned allocation;
//   - the kill ledger balances: kills = requeues + exhausted;
//   - AttainedGPUT is conserved across kill/requeue: service equals
//     RunTime × GPUs exactly, killed or not (kills must not refund or
//     double-charge GPU-time).
func TestChaosSchedulerInvariants(t *testing.T) {
	for _, ps := range propSchedulers(t) {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := xrand.New(seed)
				tr := randomTrace(r, 120)
				s, opts := ps.mk()
				opts.Invariants = sim.NewInvariantChecker(true)
				cs := chaosSpecFor(seed)
				opts.Chaos = &cs
				res := sim.New(tr, s, opts).Run()
				if res.Violations > 0 {
					t.Fatalf("seed %d: %d violations: %v", seed, res.Violations, res.ViolationSamples)
				}
				if res.JobKills == 0 {
					t.Fatalf("seed %d: fault schedule never fired", seed)
				}
				if res.JobKills != res.Requeues+res.FailedJobs {
					t.Fatalf("seed %d: kill ledger unbalanced: kills=%d requeues=%d failed=%d",
						seed, res.JobKills, res.Requeues, res.FailedJobs)
				}
				terminal := 0
				for _, j := range res.Jobs {
					switch j.State {
					case job.Finished, job.Failed:
						terminal++
					case job.Pending, job.Queued, job.Running, job.Profiling:
						// Legal at the horizon.
					default:
						t.Fatalf("seed %d: job %d lost in state %v", seed, j.ID, j.State)
					}
					if j.State == job.Failed && j.Restarts == 0 {
						t.Fatalf("seed %d: job %d Failed without a kill", seed, j.ID)
					}
					if want := j.RunTime * float64(j.GPUs); math.Abs(j.AttainedGPUT-want) > 1e-6*(1+want) {
						t.Fatalf("seed %d: job %d AttainedGPUT=%v, want RunTime×GPUs=%v (service not conserved)",
							seed, j.ID, j.AttainedGPUT, want)
					}
				}
				if terminal == 0 {
					t.Fatalf("seed %d: nothing terminal — degenerate run", seed)
				}
			}
		})
	}
}

// runDigest runs FIFO under one (trace seed, chaos spec) pair and returns
// the decision-trace digest.
func runDigest(t *testing.T, traceSeed uint64, spec chaos.Spec) string {
	t.Helper()
	tr := randomTrace(xrand.New(traceSeed), 100)
	rec := dtrace.New()
	rec.SetKeep(0)
	opts := sim.Options{Tick: 30, SchedulerEvery: 60, DecisionTrace: rec,
		Invariants: sim.NewInvariantChecker(true),
		Chaos:      &spec}
	res := sim.New(tr, sched.NewFIFO(), opts).Run()
	if res.Violations > 0 {
		t.Fatalf("violations: %v", res.ViolationSamples)
	}
	if res.JobKills == 0 {
		t.Fatal("fault schedule never fired — digest comparison is vacuous")
	}
	return rec.Digest()
}

// TestChaosDeterminism: same seed + same fault spec → byte-identical
// decision traces; a different chaos seed over the identical workload →
// a different trace.
func TestChaosDeterminism(t *testing.T) {
	spec := chaosSpecFor(5)
	a := runDigest(t, 9, spec)
	b := runDigest(t, 9, spec)
	if a != b {
		t.Fatalf("same seed+spec digests differ: %s vs %s", a, b)
	}
	other := spec
	other.Seed++
	if c := runDigest(t, 9, other); c == a {
		t.Fatal("different chaos seeds produced identical traces")
	}
}
