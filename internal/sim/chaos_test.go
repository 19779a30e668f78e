package sim

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quietSpec is a chaos spec with every fault rate zeroed — the injector is
// armed (so killJob has recovery parameters) but fires nothing on its own,
// letting tests inject kills at exact moments.
func quietSpec() chaos.Spec {
	s := chaos.DefaultSpec()
	s.NodeFailPerDay, s.GPUFailPerDay, s.JobCrashPerDay = 0, 0, 0
	s.MaxRetries = -1
	s.BackoffSec = 0
	return s
}

func newChaosSim(t *testing.T, spec chaos.Spec, jobs ...*job.Job) *Sim {
	t.Helper()
	tr := mkTrace(jobs...)
	return New(tr, fifoLike{}, Options{Tick: 10, SchedulerEvery: 10,
		Chaos: &spec, Invariants: NewInvariantChecker(true)})
}

// TestChaosKillVoidsPhantomColdStart is the Preempt-mirror of the
// StopProfiling fix: Preempt charges ColdStart unconditionally, so a job
// preempted before making any checkpointable progress carries restore debt
// with an empty checkpoint. When a fault then kills it, it restarts from
// zero — the debt must be voided, not paid a second time for a checkpoint
// that never existed.
func TestChaosKillVoidsPhantomColdStart(t *testing.T) {
	s := newChaosSim(t, quietSpec(), mkJob(1, 2, 0, 1000))
	env := &Env{s: s}
	s.StepOnce()
	j := s.byID(1)
	if j.State != job.Running {
		t.Fatalf("setup: state = %v, want Running", j.State)
	}
	// Preempt before any progress: the tick's advance ran before placement,
	// so RemainingWork is still the full duration.
	if !env.Preempt(j, 62) {
		t.Fatal("setup: preempt failed")
	}
	if j.ColdStart != 62 || j.CheckpointedWork != 0 {
		t.Fatalf("after zero-progress preempt: ColdStart=%v CheckpointedWork=%v, want 62/0",
			j.ColdStart, j.CheckpointedWork)
	}
	s.StepOnce() // scheduler re-places the job, debt still pending
	if j.State != job.Running {
		t.Fatalf("setup: job not re-placed (state %v)", j.State)
	}
	s.killJob(j, "node-crash")
	if j.ColdStart != 0 {
		t.Fatalf("ColdStart = %v after no-checkpoint kill, want 0 (phantom restore)", j.ColdStart)
	}
	if j.RemainingWork != float64(j.Duration) {
		t.Fatalf("RemainingWork = %v, want full duration %d", j.RemainingWork, j.Duration)
	}
	if j.Restarts != 1 || j.State != job.Pending {
		t.Fatalf("Restarts=%d State=%v, want 1/Pending", j.Restarts, j.State)
	}
	res := s.Run()
	if res.Unfinished != 0 || res.Violations > 0 {
		t.Fatalf("post-kill run: %s", res.Summary())
	}
}

// TestChaosKillRestoresCheckpoint: a job the intrusive path checkpointed
// resumes from the checkpoint after a fault kill, losing only the work since
// the checkpoint and paying the configured restore overhead.
func TestChaosKillRestoresCheckpoint(t *testing.T) {
	spec := quietSpec()
	spec.RestoreSec = 62
	s := newChaosSim(t, spec, mkJob(1, 2, 0, 1000))
	env := &Env{s: s}
	for i := 0; i < 20; i++ { // place, then make real progress
		s.StepOnce()
	}
	j := s.byID(1)
	if j.State != job.Running || j.RemainingWork >= float64(j.Duration) {
		t.Fatalf("setup: state=%v remaining=%v", j.State, j.RemainingWork)
	}
	cw := float64(j.Duration) - j.RemainingWork
	if !env.Preempt(j, 62) {
		t.Fatal("setup: preempt failed")
	}
	if j.CheckpointedWork != cw {
		t.Fatalf("CheckpointedWork = %v, want %v", j.CheckpointedWork, cw)
	}
	s.StepOnce() // re-place; advance ran before placement, so no new progress
	if j.State != job.Running {
		t.Fatalf("setup: job not re-placed (state %v)", j.State)
	}
	s.killJob(j, "gpu-fault")
	if j.RemainingWork != float64(j.Duration)-cw {
		t.Fatalf("RemainingWork = %v after restore, want %v (checkpoint lost)",
			j.RemainingWork, float64(j.Duration)-cw)
	}
	if j.ColdStart != 62 {
		t.Fatalf("ColdStart = %v, want restore overhead 62", j.ColdStart)
	}
	res := s.Run()
	if res.Unfinished != 0 || res.Violations > 0 {
		t.Fatalf("post-kill run: %s", res.Summary())
	}
}

// TestChaosRetryExhaustion: with a zero retry budget the first kill is
// terminal — the job ends Failed, counts as FailedJobs (not Unfinished),
// and the run terminates without it.
func TestChaosRetryExhaustion(t *testing.T) {
	spec := quietSpec()
	spec.MaxRetries = 0
	s := newChaosSim(t, spec, mkJob(1, 2, 0, 100000))
	s.StepOnce()
	j := s.byID(1)
	s.killJob(j, "node-crash")
	if j.State != job.Failed {
		t.Fatalf("state = %v, want Failed", j.State)
	}
	res := s.Run()
	if res.FailedJobs != 1 || res.Unfinished != 0 {
		t.Fatalf("FailedJobs=%d Unfinished=%d, want 1/0", res.FailedJobs, res.Unfinished)
	}
	if res.JobKills != 1 || res.Requeues != 0 {
		t.Fatalf("JobKills=%d Requeues=%d, want 1/0", res.JobKills, res.Requeues)
	}
	if j.JCT() != -1 {
		t.Fatalf("failed job reports JCT %d", j.JCT())
	}
}

// TestChaosBackoffDelaysRequeue: a killed job is hidden from Env.Queues
// until its backoff elapses, then reruns to completion.
func TestChaosBackoffDelaysRequeue(t *testing.T) {
	spec := quietSpec()
	spec.BackoffSec = 500
	spec.MaxBackoffSec = 500
	s := newChaosSim(t, spec, mkJob(1, 2, 0, 300))
	env := &Env{s: s}
	s.StepOnce()
	j := s.byID(1)
	killedAt := s.now
	s.killJob(j, "job-crash")
	if j.NextEligible != killedAt+500 {
		t.Fatalf("NextEligible = %d, want %d", j.NextEligible, killedAt+500)
	}
	if got := pending(env); len(got) != 0 {
		t.Fatalf("Queues returned %d jobs during backoff", len(got))
	}
	res := s.Run()
	if res.Unfinished != 0 || res.Violations > 0 {
		t.Fatalf("run: %s", res.Summary())
	}
	// Kill + 500 s backoff + 300 s rerun: the JCT must include the backoff.
	if jct := j.JCT(); jct < killedAt+500+300-j.Submit {
		t.Fatalf("JCT = %d, backoff not observed", jct)
	}
}

// TestChaosNodeFailureEndToEnd drives a real fault schedule through Run:
// node crashes fire, resident jobs are killed and recovered, the fatal
// invariant checker stays silent, and the kill ledger balances
// (every kill is either a requeue or a terminal exhaustion).
func TestChaosNodeFailureEndToEnd(t *testing.T) {
	spec := chaos.DefaultSpec()
	spec.Seed = 11
	spec.NodeFailPerDay = 200 // a crash roughly every 7 min per node
	spec.RepairSec = 300
	spec.GPUFailPerDay = 20
	spec.JobCrashPerDay = 10
	spec.MaxRetries = 2
	spec.BackoffSec = 60
	var jobs []*job.Job
	for i := 1; i <= 12; i++ {
		jobs = append(jobs, mkJob(i, 1+i%4, int64(i*200), 3000))
	}
	s := newChaosSim(t, spec, jobs...)
	res := s.Run()
	if res.Violations > 0 {
		t.Fatalf("violations: %v", res.ViolationSamples)
	}
	if res.NodeFailures == 0 || res.JobKills == 0 {
		t.Fatalf("fault schedule never fired: %s", res.Summary())
	}
	if res.JobKills != res.Requeues+res.FailedJobs {
		t.Fatalf("kill ledger unbalanced: kills=%d requeues=%d failed=%d",
			res.JobKills, res.Requeues, res.FailedJobs)
	}
	// No lost jobs: every job is terminal or still legitimately waiting.
	for _, j := range res.Jobs {
		switch j.State {
		case job.Finished, job.Failed, job.Pending, job.Queued:
		default:
			t.Fatalf("job %d ended in state %v", j.ID, j.State)
		}
	}
	if res.GoodputPct() >= 100 {
		t.Fatalf("goodput = %v%% despite %d kills", res.GoodputPct(), res.JobKills)
	}
}

// TestCrashRepairLifecycle follows every node of a faulty run through its
// node-crash and repair-window-elapsed events, under both engines: a crashed
// node neither re-crashes nor takes a GPU fault while down, it returns at
// the first tick ≥ crash + RepairSec, and it can crash again after repair.
// One repair window is on the tick grid and one is off it, where "first
// tick ≥" is not "crash + repair".
func TestCrashRepairLifecycle(t *testing.T) {
	spec := quietSpec()
	spec.Seed = 3
	spec.NodeFailPerDay = 400 // p ≈ 0.05 per node per tick
	spec.GPUFailPerDay = 200
	spec.BackoffSec = 20
	var jobs []*job.Job
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, mkJob(i, 1+i%3, int64(i*10), 4000))
	}
	tr := &trace.Trace{Name: "t", Jobs: jobs, Days: 1, Cluster: cluster.Spec{GPUsPerNode: 4,
		GPUMemMB: workload.GPUMemMBCap, VCs: []cluster.VCSpec{{Name: "vc", Nodes: 3}}}}
	for _, c := range []struct {
		eng    EngineKind
		repair int64
	}{{EngineTick, 95}, {EngineEvent, 95}, {EngineTick, 100}, {EngineEvent, 100}} {
		spec := spec
		spec.RepairSec = c.repair
		t.Run(fmt.Sprintf("%s/repair=%d", c.eng, c.repair), func(t *testing.T) {
			rec := dtrace.New()
			res := New(tr, fifoLike{}, Options{Tick: 10, SchedulerEvery: 10, Engine: c.eng,
				MaxHorizon: 6000, Chaos: &spec, DecisionTrace: rec,
				Invariants: NewInvariantChecker(true)}).Run()
			if res.Violations > 0 {
				t.Fatalf("violations: %v", res.ViolationSamples)
			}
			downSince := map[int]int64{} // node → crash tick, while down
			crashes := map[int]int{}
			gpuFaults := 0
			for _, ev := range rec.Events() {
				n := ev.Node - 1
				switch ev.Reason {
				case "node-crash":
					if at, down := downSince[n]; down {
						t.Fatalf("node %d crashed at %d while down since %d", n, ev.Tick, at)
					}
					downSince[n] = ev.Tick
					crashes[n]++
				case "gpu-fault":
					if at, down := downSince[n]; down {
						t.Fatalf("GPU fault on node %d at %d while down since %d", n, ev.Tick, at)
					}
					gpuFaults++
				case "repair-window-elapsed":
					at, down := downSince[n]
					if !down {
						t.Fatalf("node %d repaired at %d while up", n, ev.Tick)
					}
					if want := firstTickGE(at+spec.RepairSec, 10); ev.Tick != want {
						t.Fatalf("node %d crashed at %d, repaired at %d, want %d", n, at, ev.Tick, want)
					}
					delete(downSince, n)
				}
			}
			again := 0
			for _, c := range crashes {
				if c >= 2 {
					again++
				}
			}
			if again == 0 || gpuFaults == 0 {
				t.Fatalf("schedule too quiet to mean anything: crashes %v, %d GPU faults", crashes, gpuFaults)
			}
		})
	}
}

// TestChaosStragglerSlowsJob: a 100%-straggler cluster at 0.5× speed must
// roughly double an uncontended job's JCT.
func TestChaosStragglerSlowsJob(t *testing.T) {
	spec := quietSpec()
	spec.StragglerFrac = 1
	spec.StragglerSlowdown = 0.5
	s := newChaosSim(t, spec, mkJob(1, 2, 0, 600))
	res := s.Run()
	if res.Unfinished != 0 {
		t.Fatal("unfinished")
	}
	if jct := res.Jobs[0].JCT(); jct < 1150 || jct > 1300 {
		t.Fatalf("straggler JCT = %d, want ≈1200 (0.5× speed)", jct)
	}
}

// TestChaosOffMatchesNilInjector: a spec that disables every fault must
// leave the decision trace byte-identical to running with no spec at all —
// the "chaos disabled costs only a nil check" claim, verified at the
// event-stream level.
func TestChaosOffMatchesNilInjector(t *testing.T) {
	run := func(spec *chaos.Spec) string {
		rec := dtrace.New()
		tr := mkTrace(mkJob(1, 2, 0, 500), mkJob(2, 8, 100, 700), mkJob(3, 4, 200, 300))
		res := New(tr, fifoLike{}, Options{Tick: 10, Chaos: spec, DecisionTrace: rec,
			Invariants: NewInvariantChecker(true)}).Run()
		if res.Violations > 0 {
			t.Fatalf("violations: %v", res.ViolationSamples)
		}
		return rec.Digest()
	}
	off, err := chaos.ParseSpec("off")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := run(nil), run(&off); a != b {
		t.Fatalf("digest differs: nil=%s off=%s", a, b)
	}
}
