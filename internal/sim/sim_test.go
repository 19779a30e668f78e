package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fifoLike is a minimal greedy scheduler for engine tests.
type fifoLike struct{}

func (fifoLike) Name() string { return "test-greedy" }
func (fifoLike) Tick(env *Env) {
	for _, j := range pending(env) {
		env.StartExclusive(j)
	}
}

func tinySpec() cluster.Spec {
	return cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc", Nodes: 1}}}
}

func mkJob(id int, gpus int, submit, dur int64) *job.Job {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	return job.New(id, "j", "u", "vc", gpus, submit, dur, cfg)
}

func mkTrace(jobs ...*job.Job) *trace.Trace {
	return &trace.Trace{Name: "t", Cluster: tinySpec(), Jobs: jobs, Days: 1}
}

func TestSingleJobLifecycle(t *testing.T) {
	tr := mkTrace(mkJob(1, 2, 0, 600))
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	if res.Unfinished != 0 {
		t.Fatal("job did not finish")
	}
	j := res.Jobs[0]
	if j.State != job.Finished {
		t.Fatalf("state = %v", j.State)
	}
	// JCT ≈ duration (+ tick slop).
	if jct := j.JCT(); jct < 600 || jct > 640 {
		t.Fatalf("JCT = %d, want ≈600", jct)
	}
	if q := j.QueueDelay(); q > 30 {
		t.Fatalf("queue delay = %d for an empty cluster", q)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	// Two 8-GPU jobs on an 8-GPU cluster: the second must wait for the
	// first.
	tr := mkTrace(mkJob(1, 8, 0, 1000), mkJob(2, 8, 0, 1000))
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	if res.Unfinished != 0 {
		t.Fatal("jobs did not finish")
	}
	j2 := res.Jobs[1]
	if q := j2.QueueDelay(); q < 900 {
		t.Fatalf("second job queue delay = %d, want ≈1000", q)
	}
	if res.MakespanSec < 1900 {
		t.Fatalf("makespan = %d, want ≈2000", res.MakespanSec)
	}
}

func TestResultAggregates(t *testing.T) {
	tr := mkTrace(mkJob(1, 8, 0, 500), mkJob(2, 8, 0, 500))
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	if res.AvgJCTSec <= 0 || res.AvgQueueSec <= 0 {
		t.Fatalf("aggregates: %+v", res)
	}
	if len(res.JCTs()) != 2 {
		t.Fatal("per-job series wrong")
	}
	if res.PerVCQueueSec["vc"] <= 0 {
		t.Fatal("per-VC queue missing")
	}
}

// sharingSched packs job 2 with job 1.
type sharingSched struct{}

func (sharingSched) Name() string { return "test-sharing" }
func (sharingSched) Tick(env *Env) {
	pend := pending(env)
	for _, j := range pend {
		if j.ID == 1 {
			env.StartExclusive(j)
		}
	}
	running := env.Running()
	for _, j := range pend {
		if j.ID == 2 && len(running) > 0 {
			env.ObserveOnTheFly(j)
			env.StartShared(j, running[0])
		}
	}
}

func TestSharedJobsRunSlower(t *testing.T) {
	// Two identical ResNet-18 jobs (a Figure 3a "hard" pair) sharing GPUs
	// must both take visibly longer than exclusive duration.
	tr := mkTrace(mkJob(1, 2, 0, 1000), mkJob(2, 2, 0, 1000))
	res := New(tr, sharingSched{}, Options{Tick: 10}).Run()
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %d", res.Unfinished)
	}
	j1 := res.Jobs[0]
	if jct := j1.JCT(); jct < 1200 {
		t.Fatalf("shared ResNet-18 JCT = %d, want ≥1200 (interference)", jct)
	}
	// But far less than serial execution.
	if jct := res.Jobs[1].JCT(); jct > 1900 {
		t.Fatalf("shared JCT %d worse than serializing", jct)
	}
}

func TestSharedSpeedRecoversAfterPartnerExit(t *testing.T) {
	// Job 1 is short; once it exits, job 2 should speed back up. Total JCT
	// of job 2 must be < fully-shared estimate.
	tr := mkTrace(mkJob(1, 2, 0, 200), mkJob(2, 2, 0, 2000))
	res := New(tr, sharingSched{}, Options{Tick: 10}).Run()
	j2 := res.Jobs[1]
	if j2.Finish < 0 {
		t.Fatal("job 2 unfinished")
	}
	// Shared-throughout at ~0.7 speed would take ~2860 s; partner exits
	// after ~290 s, so expect ≈2100-2300.
	if jct := j2.JCT(); jct > 2600 {
		t.Fatalf("job 2 JCT = %d; speed did not recover after partner exit", jct)
	}
}

// preemptSched starts job 1 then preempts it when job 2 arrives.
type preemptSched struct{ preempted bool }

func (p *preemptSched) Name() string { return "test-preempt" }
func (p *preemptSched) Tick(env *Env) {
	pend := pending(env) // captured before preemption: excludes the victim
	for _, j := range pend {
		if j.ID == 2 && !p.preempted {
			for _, r := range env.Running() {
				if r.ID == 1 {
					env.Preempt(r, 62)
					p.preempted = true
				}
			}
		}
	}
	for _, j := range pend {
		env.StartExclusive(j)
	}
	if p.preempted {
		// Victim restarts only once the cluster frees up.
		for _, j := range pending(env) {
			env.StartExclusive(j)
		}
	}
}

func TestPreemptionPreservesWorkWithOverhead(t *testing.T) {
	tr := mkTrace(mkJob(1, 8, 0, 1000), mkJob(2, 8, 300, 300))
	res := New(tr, &preemptSched{}, Options{Tick: 10}).Run()
	j1, j2 := res.Jobs[0], res.Jobs[1]
	if j1.Finish < 0 || j2.Finish < 0 {
		t.Fatal("unfinished jobs")
	}
	if j1.Preemptions != 1 {
		t.Fatalf("preemptions = %d", j1.Preemptions)
	}
	// Job 1: ran ~300 s, preempted, job 2 runs 300 s, then job 1 resumes
	// with 62 s cold start and ~700 s remaining → JCT ≈ 300+300+62+700.
	if jct := j1.JCT(); jct < 1300 || jct > 1500 {
		t.Fatalf("preempted job JCT = %d, want ≈1362", jct)
	}
}

// profSched profiles every job for up to 100 s, then runs it exclusively.
type profSched struct{ tprof int64 }

func (p *profSched) Name() string { return "test-profiler" }
func (p *profSched) Tick(env *Env) {
	for _, j := range env.Profiling() {
		if env.ProfilingElapsed(j) >= p.tprof {
			env.StopProfiling(j)
		}
	}
	for _, j := range pending(env) {
		switch j.State {
		case job.Pending:
			env.StartProfiling(j)
		case job.Queued:
			env.StartExclusive(j)
		}
	}
}

func TestProfilingLifecycle(t *testing.T) {
	// Short job finishes inside the profiler; long job is profiled, evicted,
	// restarted on the main cluster.
	tr := mkTrace(mkJob(1, 1, 0, 50), mkJob(2, 1, 0, 500))
	// SchedulerEvery must be tight enough to enforce the profiling timeout
	// promptly (Lucid runs configure this too).
	s := New(tr, &profSched{tprof: 100}, Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1})
	res := s.Run()
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %d", res.Unfinished)
	}
	j1, j2 := res.Jobs[0], res.Jobs[1]
	// Debug job: immediate feedback, JCT ≈ duration.
	if jct := j1.JCT(); jct > 100 {
		t.Fatalf("debug job JCT = %d, want ≈50", jct)
	}
	if j1.Profiled {
		t.Fatal("job finishing inside the profiler never gets a profile")
	}
	if !j2.Profiled {
		t.Fatal("long job should carry a profile")
	}
	// Long job restarts after profiling: JCT ≈ Tprof + duration.
	if jct := j2.JCT(); jct < 580 || jct > 700 {
		t.Fatalf("profiled job JCT = %d, want ≈600 (100 profiling + 500 rerun)", jct)
	}
	if j2.Profile.GPUUtil <= 0 {
		t.Fatal("profile not attached")
	}
}

func TestDistributedJobCrossNodePenaltyWhenPacked(t *testing.T) {
	// Same pair on a 16-GPU job (2 nodes): packed speed must be lower than
	// the single-node pair speed by the cross-node penalty.
	spec := cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
		VCs: []cluster.VCSpec{{Name: "vc", Nodes: 4}}}
	j1 := mkJob(1, 16, 0, 1000)
	j2 := mkJob(2, 16, 0, 1000)
	tr := &trace.Trace{Name: "t", Cluster: spec, Jobs: []*job.Job{j1, j2}, Days: 1}
	res := New(tr, sharingSched{}, Options{Tick: 10}).Run()
	pairSpeed, _ := workload.PairSpeed(j1.Config, j2.Config)
	wantMin := 1000 / (pairSpeed * workload.CrossNodePenalty) * 0.9
	if jct := float64(res.Jobs[0].JCT()); jct < wantMin {
		t.Fatalf("distributed packed JCT %v; cross-node penalty not applied (want ≥ %v)", jct, wantMin)
	}
}

func TestHorizonStopsRunaway(t *testing.T) {
	// A job that can never be placed (too many GPUs) must not hang Run.
	tr := mkTrace(mkJob(1, 9, 0, 100)) // 9 > 8 per node, 1 node
	res := New(tr, fifoLike{}, Options{Tick: 60, MaxHorizon: 3600}).Run()
	if res.Unfinished != 1 {
		t.Fatalf("unfinished = %d, want 1", res.Unfinished)
	}
}

func TestElasticScheduling(t *testing.T) {
	// One elastic job at half allocation runs at (0.5)^0.85 speed.
	j := mkJob(1, 8, 0, 1000)
	tr := mkTrace(j)
	s := New(tr, elasticHalf{}, Options{Tick: 10})
	res := s.Run()
	if res.Unfinished != 0 {
		t.Fatal("unfinished")
	}
	want := 1000 / elasticSpeed(4, 8)
	got := float64(res.Jobs[0].JCT())
	if got < want*0.95 || got > want*1.1 {
		t.Fatalf("elastic JCT = %v, want ≈%v", got, want)
	}
}

type elasticHalf struct{}

func (elasticHalf) Name() string { return "test-elastic" }
func (elasticHalf) Tick(env *Env) {
	for _, j := range pending(env) {
		env.StartElastic(j, j.GPUs/2)
	}
}

func TestUtilizationSampling(t *testing.T) {
	tr := mkTrace(mkJob(1, 8, 0, 4000))
	res := New(tr, fifoLike{}, Options{Tick: 10, SampleEvery: 100}).Run()
	if res.AvgGPUUtilPct <= 0 || res.AvgGPUMemPct <= 0 {
		t.Fatalf("no utilization samples: %+v", res)
	}
	if res.AvgGPUUtilPct > 100 || res.AvgGPUMemPct > 100 {
		t.Fatalf("utilization out of range: %+v", res)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 0.5); p != 5 && p != 6 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	mk := func() *Result {
		tr := mkTrace(mkJob(1, 2, 0, 500), mkJob(2, 4, 100, 700), mkJob(3, 8, 200, 300))
		return New(tr, fifoLike{}, Options{Tick: 10}).Run()
	}
	a, b := mk(), mk()
	if a.AvgJCTSec != b.AvgJCTSec || a.MakespanSec != b.MakespanSec {
		t.Fatal("simulation not deterministic")
	}
}

func TestColdStartAccruesAttainedService(t *testing.T) {
	// Regression: while a resumed job pays its checkpoint-restore cold
	// start, wall clock passes on occupied GPUs — RunTime and AttainedGPUT
	// must accrue together. The bug charged RunTime but not AttainedGPUT,
	// so preempted jobs looked younger to Tiresias's LAS than the GPU-time
	// the cluster actually spent on them.
	tr := mkTrace(mkJob(1, 8, 0, 1000), mkJob(2, 8, 300, 300))
	res := New(tr, &preemptSched{}, Options{Tick: 10}).Run()
	j1 := res.Jobs[0]
	if j1.Preemptions != 1 || j1.Finish < 0 {
		t.Fatalf("scenario broken: preemptions=%d finish=%d", j1.Preemptions, j1.Finish)
	}
	for _, j := range res.Jobs {
		want := float64(j.RunTime) * float64(j.GPUs)
		if diff := j.AttainedGPUT - want; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("job %d: AttainedGPUT = %v, want RunTime*GPUs = %v (cold-start ticks dropped)",
				j.ID, j.AttainedGPUT, want)
		}
	}
}

// preemptProfSched preempts a running job, then routes it through the
// profiler before letting it back onto the main cluster: the preempt →
// profile → run lifecycle.
type preemptProfSched struct {
	ticks     int
	preempted bool
}

func (p *preemptProfSched) Name() string { return "test-preempt-profile" }
func (p *preemptProfSched) Tick(env *Env) {
	p.ticks++
	if !p.preempted {
		if p.ticks <= 10 {
			for _, j := range pending(env) {
				env.StartExclusive(j)
			}
			return
		}
		for _, r := range env.Running() {
			// Overhead larger than the profiling window, so part of the
			// checkpoint debt survives the profiling run — exactly the
			// stale state StopProfiling must clear.
			env.Preempt(r, 300)
			p.preempted = true
		}
		return
	}
	for _, j := range env.Profiling() {
		if env.ProfilingElapsed(j) >= 100 {
			env.StopProfiling(j)
		}
	}
	for _, j := range pending(env) {
		switch j.State {
		case job.Pending:
			env.StartProfiling(j)
		case job.Queued:
			env.StartExclusive(j)
		}
	}
}

func TestStopProfilingClearsCheckpointDebt(t *testing.T) {
	// Regression: a job preempted with checkpoint overhead and then sent
	// through the profiler restarts from zero — no checkpoint exists any
	// more, so StopProfiling must void the pending ColdStart. The bug kept
	// it, charging a phantom checkpoint-restore on the post-profiling start.
	tr := mkTrace(mkJob(1, 1, 0, 500))
	res := New(tr, &preemptProfSched{}, Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1}).Run()
	j := res.Jobs[0]
	if res.Unfinished != 0 || j.Preemptions != 1 || !j.Profiled {
		t.Fatalf("scenario broken: unfinished=%d preemptions=%d profiled=%v",
			res.Unfinished, j.Preemptions, j.Profiled)
	}
	if j.ColdStart != 0 {
		t.Fatalf("ColdStart = %v after profiling restart, want 0", j.ColdStart)
	}
	// ~100 s initial run + ~100 s profiling + 500 s restart-from-zero. The
	// stale 200 s of checkpoint debt would push this toward 900.
	if jct := j.JCT(); jct < 680 || jct > 740 {
		t.Fatalf("JCT = %d, want ≈700 (no phantom checkpoint-restore)", jct)
	}
}

func TestPendingSkipsFinishedJobs(t *testing.T) {
	// The waiting set must keep every waiting job while finished ones drop
	// out. A burst of short jobs finishes first; the late arrival must still
	// be scheduled, and once everything completes nobody is waiting or
	// resident — terminal jobs never linger in anything a round scans.
	jobs := []*job.Job{}
	for i := 1; i <= 6; i++ {
		jobs = append(jobs, mkJob(i, 1, 0, 50))
	}
	jobs = append(jobs, mkJob(7, 8, 2000, 100))
	tr := mkTrace(jobs...)
	s := New(tr, fifoLike{}, Options{Tick: 10})
	res := s.Run()
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %d", res.Unfinished)
	}
	if n := s.waitingCount() + len(s.running.jobs); n != 0 {
		t.Fatalf("%d jobs still waiting or running after all finished, want 0", n)
	}
	if late := res.Jobs[6]; late.Finish < 0 || late.QueueDelay() > 30 {
		t.Fatalf("late job mishandled: finish=%d queue=%d", late.Finish, late.QueueDelay())
	}
}

func TestPendingWindowUnlinksOutOfOrder(t *testing.T) {
	// The old terminal-*prefix* cursor stalled permanently on the first
	// non-terminal job: one long-running early job kept every later
	// (finished) job inside the scan window forever. Jobs must leave what a
	// round scans individually, regardless of completion order.
	jobs := []*job.Job{
		mkJob(1, 1, 0, 100000), // long-running head, still alive at the end
	}
	for i := 2; i <= 5; i++ {
		jobs = append(jobs, mkJob(i, 1, 0, 50)) // short, finish early
	}
	tr := mkTrace(jobs...)
	s := New(tr, fifoLike{}, Options{Tick: 10, MaxHorizon: 2000})
	s.Run()
	if got := s.byID(1).State; got != job.Running {
		t.Fatalf("head job state = %v, want still Running", got)
	}
	if w, r := s.waitingCount(), len(s.running.jobs); w != 0 || r != 1 {
		t.Fatalf("%d waiting and %d running, want 0 and 1 (only the running head)", w, r)
	}
}

func TestTraceReusableAcrossRuns(t *testing.T) {
	// New() clones jobs, so running twice from one trace must not corrupt
	// the second run.
	tr := mkTrace(mkJob(1, 8, 0, 500), mkJob(2, 8, 0, 500))
	r1 := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	r2 := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	if r1.AvgJCTSec != r2.AvgJCTSec {
		t.Fatal("trace state leaked between runs")
	}
	for _, j := range tr.Jobs {
		if j.State != job.Pending || j.Finish != -1 {
			t.Fatal("original trace jobs mutated")
		}
	}
}

// TestPercentileCeilNearestRank pins the ceil-based nearest-rank definition
// on 100 known values. Regression: the old truncating index int(p·(n−1))
// rounded the rank down, so p99.9 of a 100-sample distribution returned the
// 99th-smallest value instead of the maximum — tail-latency reports
// (P999QueueSec, Fig. 8) silently understated the worst case on any run
// with fewer than 1000 finished jobs.
func TestPercentileCeilNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed; Percentile sorts its own copy
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1},
		{0.001, 1},
		{0.01, 1},
		{0.25, 25},
		{0.5, 50},
		{0.9, 90},
		{0.99, 99},
		{0.999, 100}, // the regression: truncation gave 99
		{1, 100},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64{7}, 0.999); got != 7 {
		t.Errorf("single-sample p99.9 = %v, want 7", got)
	}
}

// packUnprofiledSched packs job 2 onto job 1 WITHOUT ObserveOnTheFly: the
// allocator's memory guard sees a 0 MB reservation for both, so their true
// profile footprints can sum past physical GPU memory.
type packUnprofiledSched struct{}

func (packUnprofiledSched) Name() string { return "test-pack-unprofiled" }
func (packUnprofiledSched) Tick(env *Env) {
	pend := pending(env)
	for _, j := range pend {
		if j.ID == 1 {
			env.StartExclusive(j)
		}
	}
	running := env.Running()
	for _, j := range pend {
		if j.ID == 2 && len(running) > 0 {
			env.StartShared(j, running[0])
		}
	}
}

// TestSampleMemoryCappedUnderPacking is the sample() clamp regression: two
// unprofiled BERT jobs packed across the whole cluster have a combined
// footprint of ~25.6 GB per 24 GB GPU, so before the clamp AvgGPUMemPct
// reported >106% — hardware that does not exist.
func TestSampleMemoryCappedUnderPacking(t *testing.T) {
	cfg := workload.Config{Model: workload.BERT, BatchSize: 32}
	combined := 2 * cfg.Profile().GPUMemMB
	if combined <= workload.GPUMemMBCap {
		t.Fatalf("scenario broken: combined footprint %v fits in %v", combined, workload.GPUMemMBCap)
	}
	j1 := job.New(1, "a", "u", "vc", 8, 0, 2000, cfg)
	j2 := job.New(2, "b", "u", "vc", 8, 0, 2000, cfg)
	res := New(mkTrace(j1, j2), packUnprofiledSched{}, Options{Tick: 10, SampleEvery: 10}).Run()
	if res.SharedStarts == 0 {
		t.Fatal("scenario broken: nothing was packed")
	}
	if res.AvgGPUMemPct > 100 {
		t.Fatalf("AvgGPUMemPct = %v, must be clamped to 100", res.AvgGPUMemPct)
	}
	if res.AvgGPUMemPct < 90 {
		t.Fatalf("AvgGPUMemPct = %v: packed phase did not dominate, scenario no longer exercises the overflow", res.AvgGPUMemPct)
	}
}

// TestPlacementGuardsRejectIneligibleStates pins the unplaceable() guard:
// placement APIs must refuse Failed (terminal — retries exhausted for good)
// and Profiling (currently occupying the profiling cluster) jobs, and must
// say why in the decision trace. The old guard only checked
// Running||Finished, so a buggy scheduler could resurrect a Failed job or
// double-place a profiling one, corrupting both clusters' accounting.
func TestPlacementGuardsRejectIneligibleStates(t *testing.T) {
	rec := dtrace.New()
	jFail := mkJob(1, 2, 0, 100)
	jProf := mkJob(2, 2, 0, 100)
	partner := mkJob(3, 2, 0, 1000)
	s := New(mkTrace(jFail, jProf, partner), fifoLike{}, Options{Tick: 10, DecisionTrace: rec})
	env := &Env{s: s}
	// New() clones trace jobs; act on the clones.
	jFail, jProf, partner = s.jobs[0], s.jobs[1], s.jobs[2]

	if !env.StartExclusive(partner) {
		t.Fatal("scenario broken: partner did not place")
	}
	jFail.State = job.Failed
	jProf.State = job.Profiling
	for _, tc := range []struct {
		name   string
		place  bool
		reason string
	}{
		{"exclusive-failed", env.StartExclusive(jFail), "terminal-state"},
		{"shared-failed", env.StartShared(jFail, partner), "terminal-state"},
		{"exclusive-profiling", env.StartExclusive(jProf), "still-profiling"},
		{"shared-profiling", env.StartShared(jProf, partner), "still-profiling"},
	} {
		if tc.place {
			t.Fatalf("%s: placement succeeded on an ineligible job", tc.name)
		}
		found := false
		for _, ev := range rec.Events() {
			if ev.Reason == tc.reason &&
				(ev.Action == dtrace.ActPlaceFail || ev.Action == dtrace.ActPackReject) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no trace event with reason %q", tc.name, tc.reason)
		}
	}
	if jFail.State != job.Failed || jProf.State != job.Profiling {
		t.Fatal("rejected placements mutated job state")
	}
}

// TestEnvRefusesAJobThatIsNotTheRunsCopy: New copies every job, and Env acts
// on the copies. Handed another pointer with a copy's ID — the trace's own
// job, or a clone of the copy with its slot — every mutator must refuse and
// change nothing, that job included. StartExclusive used to place the
// trace's job by its ID, and the next tick found the run's copy "state
// Pending but not in the waiting set" while its ID held GPUs.
func TestEnvRefusesAJobThatIsNotTheRunsCopy(t *testing.T) {
	s, env, _ := newHandSim(t, mkJob(1, 2, 0, 5000), mkJob(2, 2, 0, 5000),
		mkJob(3, 2, 0, 5000), mkJob(4, 2, 0, 5000))
	run, wait, elastic, prof := s.byID(1), s.byID(2), s.byID(3), s.byID(4)
	if !env.StartExclusive(run) || !env.StartElastic(elastic, 1) || !env.StartProfiling(prof) {
		t.Fatal("setup: placement failed")
	}
	state := func() string {
		var b bytes.Buffer
		if err := s.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		// The snapshot does not carry the sets; who is in them, by pointer.
		for _, set := range [][]*job.Job{s.running.jobs, s.profiling.jobs, s.waiting[0].jobs} {
			for _, j := range set {
				fmt.Fprintf(&b, "%p ", j)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	others := map[string]func(*job.Job) *job.Job{
		"trace job": func(j *job.Job) *job.Job { return s.tr.Jobs[j.Slot] },
		"clone":     func(j *job.Job) *job.Job { c := *j; return &c },
	}
	calls := []struct {
		name string
		call func(other func(*job.Job) *job.Job) (*job.Job, bool)
	}{
		{"StartExclusive", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			return f, env.StartExclusive(f)
		}},
		{"StartShared", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			return f, env.StartShared(f, run)
		}},
		{"StartShared partner", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(run)
			return f, env.StartShared(wait, f)
		}},
		{"StartElastic", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			return f, env.StartElastic(f, 1)
		}},
		{"ResizeElastic", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(elastic)
			return f, env.ResizeElastic(f, 2)
		}},
		{"Preempt", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(run)
			return f, env.Preempt(f, 62)
		}},
		{"StartProfiling", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			return f, env.StartProfiling(f)
		}},
		{"StopProfiling", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(prof)
			env.StopProfiling(f)
			return f, false
		}},
		{"Admit", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			env.Admit(f)
			return f, false
		}},
		{"ObserveOnTheFly", func(o func(*job.Job) *job.Job) (*job.Job, bool) {
			f := o(wait)
			env.ObserveOnTheFly(f)
			return f, false
		}},
	}
	for _, kind := range []string{"trace job", "clone"} {
		for _, c := range calls {
			before := state()
			var was job.Job
			f, ok := c.call(func(j *job.Job) *job.Job {
				f := others[kind](j)
				was = *f
				return f
			})
			if ok {
				t.Fatalf("%s accepted a %s", c.name, kind)
			}
			if state() != before {
				t.Fatalf("%s on a %s changed the run's state", c.name, kind)
			}
			if *f != was {
				t.Fatalf("%s changed the %s it refused", c.name, kind)
			}
		}
	}
	s.checkInvariants()

	// The run's own copies are accepted in the same state.
	env.Admit(wait)
	env.ObserveOnTheFly(wait)
	env.StopProfiling(prof)
	if wait.State != job.Queued || !wait.Profiled || prof.State != job.Queued {
		t.Fatalf("own copies refused: states %v and %v", wait.State, prof.State)
	}
	if !env.StartShared(wait, run) || !env.ResizeElastic(elastic, 2) || !env.Preempt(run, 62) {
		t.Fatal("own copies refused")
	}
	s.StepOnce()
}
