package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
)

// churnSched drives every job.Runtime field: it profiles each new job for
// 100 s, runs queued jobs exclusively, and every fifth round preempts the
// first running job with checkpoint overhead.
type churnSched struct{ rounds int }

func (c *churnSched) Name() string { return "test-churn" }
func (c *churnSched) Tick(env *Env) {
	c.rounds++
	for _, j := range env.Profiling() {
		if env.ProfilingElapsed(j) >= 100 {
			env.StopProfiling(j)
		}
	}
	if run := env.Running(); c.rounds%5 == 0 && len(run) > 0 {
		env.Preempt(run[0], 120)
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

// TestSnapshotRoundTripsRuntime: a mid-run world in which every job.Runtime
// field has left its submission-time value on some job must come back from
// Snapshot → Resume with every job's Runtime unchanged, and the resumed
// world must snapshot to the same bytes.
func TestSnapshotRoundTripsRuntime(t *testing.T) {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, job.New(i+1, "j", "u", "vc", 1+i%4, int64(i)*150, 1500+int64(i%7)*700, cfg))
	}
	tr := &trace.Trace{Name: "churn", Days: 1, Jobs: jobs, Cluster: cluster.Spec{
		GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap, VCs: []cluster.VCSpec{{Name: "vc", Nodes: 2}}}}
	spec := chaos.DefaultSpec()
	spec.NodeFailPerDay, spec.JobCrashPerDay, spec.MaxRetries = 0, 30, -1
	opts := Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1, Chaos: &spec}

	s := New(tr, &churnSched{}, opts)
	if s.RunUntil(8000) {
		t.Fatal("run finished before the snapshot point")
	}
	rt := reflect.TypeOf(job.Runtime{})
	for f := 0; f < rt.NumField(); f++ {
		moved := false
		for _, j := range s.jobs {
			fresh := job.Job{Duration: j.Duration}
			fresh.Reset()
			moved = moved || !reflect.ValueOf(j.Runtime).Field(f).Equal(reflect.ValueOf(fresh.Runtime).Field(f))
		}
		if !moved {
			t.Errorf("no job's %s moved from its submission value: the scenario no longer covers it", rt.Field(f).Name)
		}
	}

	var first, second bytes.Buffer
	if err := s.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(tr, &churnSched{}, opts, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range s.jobs {
		if got := r.jobs[i].Runtime; !reflect.DeepEqual(got, j.Runtime) {
			t.Fatalf("job %d runtime after resume:\n got %+v\nwant %+v", j.ID, got, j.Runtime)
		}
	}
	if err := r.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("the resumed world snapshots to different bytes")
	}
}
