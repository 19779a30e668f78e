package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// binderProbe is a harness scheduler: on every tick it asks the Binder for
// a partner for each waiting job (recording the outcome), then places the
// job exclusively so it becomes partner material for later arrivals.
type binderProbe struct {
	b      *Binder
	score  func(*job.Job) workload.SharingScore
	prof   workload.Profile
	found  map[int]int    // probe job → chosen partner
	reason map[int]string // probe job → rule that prevented packing
}

func newBinderProbe(b *Binder, score func(*job.Job) workload.SharingScore) *binderProbe {
	return &binderProbe{b: b, score: score,
		prof:  workload.Profile{GPUUtil: 0.3, GPUMemMB: 4000, GPUMemUtil: 0.2},
		found: map[int]int{}, reason: map[int]string{}}
}

func (bp *binderProbe) Name() string { return "binder-probe" }
func (bp *binderProbe) Tick(env *sim.Env) {
	for _, j := range waiting(env) {
		j.Profiled = true
		j.Profile = bp.prof
		ex := &PackExplain{}
		if p := bp.b.FindPartnerExplain(env, j, bp.score, nil, ex); p != nil {
			bp.found[j.ID] = p.ID
		} else {
			bp.reason[j.ID] = ex.Reason
		}
		env.StartExclusive(j)
	}
}

func probeSpec() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc", Nodes: 1}}}
}

// probeTrace: job 1 arrives first (the future partner), job 2 probes it.
func probeTrace() *trace.Trace {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	return &trace.Trace{Name: "probe", Cluster: probeSpec(), Days: 1,
		Jobs: []*job.Job{
			job.New(1, "a", "u", "vc", 1, 0, 8000, cfg),
			job.New(2, "b", "u", "vc", 1, 300, 8000, cfg),
		}}
}

func runProbe(t *testing.T, b *Binder, score func(*job.Job) workload.SharingScore) *binderProbe {
	t.Helper()
	bp := newBinderProbe(b, score)
	opts := sim.Options{Tick: 60, SchedulerEvery: 60, MaxHorizon: 3600,
		Invariants: sim.NewInvariantChecker(true)}
	res := sim.New(probeTrace(), bp, opts).Run()
	if res.Violations > 0 {
		t.Fatalf("violations: %v", res.ViolationSamples)
	}
	return bp
}

func constScore(s workload.SharingScore) func(*job.Job) workload.SharingScore {
	return func(*job.Job) workload.SharingScore { return s }
}

// TestBinderGSSWide: the default budget GSS=2 rejects the Jumbo pair (two
// Jumbos sum to 4) at the partner check.
func TestBinderGSSWide(t *testing.T) {
	bp := runProbe(t, newBinder(DefaultConfig()), constScore(workload.Jumbo))
	if _, ok := bp.found[2]; ok {
		t.Fatal("Jumbo pair packed under default GSS=2")
	}
}

// TestEstimatorNoRecurrence: a history where every job name and user is
// unique (zero recurring-job signal, the feature the estimator leans on
// most) must still train and produce sane positive estimates.
func TestEstimatorNoRecurrence(t *testing.T) {
	cfgs := workload.AllConfigs()
	jobs := make([]*job.Job, 300)
	for i := range jobs {
		j := job.New(i+1, fmt.Sprintf("unique-%d", i), fmt.Sprintf("solo-%d", i),
			"vc", 1<<(i%4), int64(i)*600, 500+int64(i%37)*977, cfgs[i%len(cfgs)])
		jobs[i] = j
	}
	est, err := TrainWorkloadEstimator(jobs)
	if err != nil {
		t.Fatalf("train on recurrence-free history: %v", err)
	}
	probe := job.New(9001, "never-seen", "new-user", "vc", 2, 0, 0,
		workload.Config{Model: workload.ResNet50, BatchSize: 64})
	EnsureProfiles([]*job.Job{probe})
	if got := est.EstimateSec(probe); got < 60 {
		t.Fatalf("estimate %v below the 60 s floor", got)
	}
}

// TestLucidWithoutProfilerPartition: ProfilerNodes=0 removes the profiling
// cluster entirely; every job must take the observe-on-the-fly path
// (visible in the decision trace), finish, and violate nothing.
func TestLucidWithoutProfilerPartition(t *testing.T) {
	spec := trace.Venus()
	spec.Name = "noprof"
	spec.Nodes = 4
	spec.NumVCs = 2
	spec.NumJobs = 600
	spec.Days = 3
	g := trace.NewGenerator(spec)
	hist := g.Emit(600)
	models, err := TrainModels(hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := g.Emit(120)

	rec := dtrace.New()
	rec.SetKeep(0)
	opts := sim.Options{Tick: 60, SchedulerEvery: 60, ProfilerNodes: 0,
		DecisionTrace: rec, Invariants: sim.NewInvariantChecker(true)}
	res := sim.New(eval, New(models, DefaultConfig()), opts).Run()
	if res.Violations > 0 {
		t.Fatalf("violations: %v", res.ViolationSamples)
	}
	if res.Unfinished > 0 {
		t.Fatalf("%d jobs unfinished without a profiler partition", res.Unfinished)
	}
	sum := rec.Summary()
	if sum.Reasons["profile-skip/no-profiler-partition"] == 0 {
		t.Fatalf("no on-the-fly profiling decisions recorded; reasons: %v", sum.Reasons)
	}
	if sum.Actions[string(dtrace.ActProfileStart)] > 0 {
		t.Fatalf("profiling started with no partition; actions: %v", sum.Actions)
	}
}

// TestProfiledJobIsPlacedInTheRoundItLeavesTheProfiler: Lucid reads the
// waiting set once, at the top of a round, when a job about to be evicted
// from the profiler is still Profiling and therefore not in it. The
// orchestrator must see that job all the same — with the main cluster idle
// it starts in the very round that handed it back, not a round later.
func TestProfiledJobIsPlacedInTheRoundItLeavesTheProfiler(t *testing.T) {
	spec := trace.Venus()
	spec.Name = "handback"
	spec.Nodes = 4
	spec.NumVCs = 2
	spec.NumJobs = 600
	spec.Days = 3
	hist := trace.NewGenerator(spec).Emit(600)
	models, err := TrainModels(hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	eval := &trace.Trace{Name: "t", Cluster: probeSpec(), Days: 1, Jobs: []*job.Job{
		job.New(1, "long", "u", "vc", 1, 0, 5000, cfg),
		job.New(2, "late", "u", "vc", 1, 100, 5000, cfg), // a second, ordinary, waiting job
	}}
	rec := dtrace.New()
	res := sim.New(eval, New(models, DefaultConfig()), sim.Options{Tick: 10, SchedulerEvery: 10,
		ProfilerNodes: 1, DecisionTrace: rec, Invariants: sim.NewInvariantChecker(true)}).Run()
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %d", res.Unfinished)
	}
	for id := 1; id <= 2; id++ {
		stop, start := int64(-1), int64(-1)
		for _, e := range rec.Events() {
			if e.Job != id {
				continue
			}
			switch e.Action {
			case dtrace.ActProfileStop:
				stop = e.Tick
			case dtrace.ActPlace, dtrace.ActPack:
				start = e.Tick
			}
		}
		if stop < 0 || start != stop {
			t.Errorf("job %d left the profiler at %d and started at %d, want the same round", id, stop, start)
		}
	}
}
