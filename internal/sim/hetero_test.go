package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fastPrefSched starts every job preferring fast nodes.
type fastPrefSched struct{ pref cluster.Preference }

func (f fastPrefSched) Name() string { return "test-hetero" }
func (f fastPrefSched) Tick(env *Env) {
	for _, j := range pending(env) {
		env.StartExclusivePrefer(j, f.pref)
	}
}

func heteroTrace(jobs ...*job.Job) *trace.Trace {
	return &trace.Trace{
		Name: "hetero",
		Cluster: cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
			FastNodesFrac: 0.5, FastSpeed: 2.0,
			VCs: []cluster.VCSpec{{Name: "vc", Nodes: 2}}},
		Jobs: jobs,
		Days: 1,
	}
}

func TestFastNodeSpeedsUpJob(t *testing.T) {
	j := mkJob(1, 2, 0, 1000)
	res := New(heteroTrace(j), fastPrefSched{cluster.PreferFast}, Options{Tick: 10}).Run()
	if res.Unfinished != 0 {
		t.Fatal("unfinished")
	}
	// 2× generation → JCT ≈ 500.
	if jct := res.Jobs[0].JCT(); jct < 450 || jct > 600 {
		t.Fatalf("fast-node JCT = %d, want ≈500", jct)
	}
}

func TestSlowNodeRunsAtBaseSpeed(t *testing.T) {
	j := mkJob(1, 2, 0, 1000)
	res := New(heteroTrace(j), fastPrefSched{cluster.PreferSlow}, Options{Tick: 10}).Run()
	if jct := res.Jobs[0].JCT(); jct < 950 || jct > 1100 {
		t.Fatalf("slow-node JCT = %d, want ≈1000", jct)
	}
}

func TestDistributedJobPacedBySlowestNode(t *testing.T) {
	// A 16-GPU job spans both nodes (one fast, one slow): paced by the slow
	// one.
	j := mkJob(1, 16, 0, 1000)
	res := New(heteroTrace(j), fastPrefSched{cluster.PreferFast}, Options{Tick: 10}).Run()
	if jct := res.Jobs[0].JCT(); jct < 950 {
		t.Fatalf("mixed-generation job JCT = %d; must be paced by the slow node", jct)
	}
}

func TestFairnessMetrics(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	ja := job.New(1, "a", "alice", "vc", 8, 0, 1000, cfg)
	jb := job.New(2, "b", "bob", "vc", 8, 0, 1000, cfg)
	tr := mkTrace(ja, jb)
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()

	slow := res.UserSlowdowns()
	if len(slow) != 2 {
		t.Fatalf("users = %d", len(slow))
	}
	// Alice ran immediately (slowdown ≈1); Bob waited a full job (≈2).
	if slow["alice"] > 1.1 || slow["bob"] < 1.8 {
		t.Fatalf("slowdowns: %v", slow)
	}
	fi := res.FairnessIndex()
	if fi <= 0 || fi >= 1 {
		t.Fatalf("Jain index = %v, want strictly inside (0,1) for unequal users", fi)
	}
	user, worst := res.WorstUserSlowdown()
	if user != "bob" || worst < 1.8 {
		t.Fatalf("worst user = %s (%v)", user, worst)
	}
}

func TestFairnessIndexPerfectlyFair(t *testing.T) {
	cfg := workload.Config{Model: workload.PointNet, BatchSize: 64}
	ja := job.New(1, "a", "alice", "vc", 2, 0, 500, cfg)
	jb := job.New(2, "b", "bob", "vc", 2, 0, 500, cfg)
	tr := mkTrace(ja, jb)
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	// Both ran immediately on an empty cluster: equal slowdowns → index ≈ 1.
	if fi := res.FairnessIndex(); fi < 0.999 {
		t.Fatalf("Jain index = %v for identical users", fi)
	}
}

// TestResizeElasticTakesTheNewNodesGeneration: a resize frees the job and
// allocates it again, possibly on other nodes. The job must then run at the
// pace of the nodes it is on — it used to keep the factor of the ones it
// left, here running 2× too fast on a baseline-speed node.
func TestResizeElasticTakesTheNewNodesGeneration(t *testing.T) {
	s := New(heteroTrace(mkJob(1, 8, 0, 50000), mkJob(2, 1, 0, 50000)), &handSched{},
		Options{Tick: 10, SchedulerEvery: 10, Invariants: NewInvariantChecker(true)})
	s.StepOnce()
	env := &Env{s: s}
	j := s.byID(1)
	// Both nodes idle: best-fit ties go to the first, the fast one. Job 2
	// then takes a GPU beside it, so the full 8 only fit on the slow node.
	if !env.StartElastic(j, 4) || !env.StartExclusive(s.byID(2)) {
		t.Fatal("setup: placement failed")
	}
	if n := s.main.GPUsOf(1)[0].Node; n != 0 {
		t.Fatalf("setup: job 1 on node %d, want the fast node 0", n)
	}
	s.StepOnce()
	before := j.RemainingWork
	s.StepOnce()
	if got := before - j.RemainingWork; got != 10 { // half the demand × 2.0 × 10 s
		t.Fatalf("on the fast node at half size: %v s of work a tick, want 10", got)
	}

	if !env.ResizeElastic(j, 8) {
		t.Fatal("resize failed")
	}
	if n := s.main.GPUsOf(1)[0].Node; n != 1 {
		t.Fatalf("job 1 on node %d after the resize, want the slow node 1", n)
	}
	for i := 0; i < 3; i++ { // the resize's 30 s restart
		s.StepOnce()
	}
	before = j.RemainingWork
	s.StepOnce() // fatal invariants compare the speed with one computed from scratch
	if got := before - j.RemainingWork; got != 10 {
		t.Fatalf("on the slow node at full size: %v s of work a tick, want 10 (20 is the old node's factor)", got)
	}
}
