package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pending is the waiting set as one list in trace order: Env.Queues
// flattened, for tests that do not care which VC a job waits in.
func pending(env *Env) []*job.Job {
	var out []*job.Job
	for _, q := range env.Queues() {
		out = append(out, q.Jobs...)
	}
	idx := env.s.idxOf
	slices.SortFunc(out, func(a, b *job.Job) int { return cmp.Compare(idx[a.ID], idx[b.ID]) })
	return out
}

// byID is the job with the given ID.
func (s *Sim) byID(id int) *job.Job { return s.jobs[s.idxOf[id]] }

// oldPending is the waiting set as it was before the engine kept one:
// a scan of the submitted jobs in trace order (the live window held exactly
// those that were not terminal, in that order) for the visible waiting ones.
func oldPending(s *Sim) []*job.Job {
	var out []*job.Job
	for _, j := range s.jobs[:s.arriveIdx] {
		if (j.State == job.Pending || j.State == job.Queued) && j.NextEligible <= s.now {
			out = append(out, j)
		}
	}
	return out
}

// oldQueues is oldPending grouped by VC, VCs in name order: what every
// baseline scheduler used to build each round.
func oldQueues(s *Sim) []Queue {
	groups := map[string][]*job.Job{}
	for _, j := range oldPending(s) {
		groups[j.VC] = append(groups[j.VC], j)
	}
	vcs := make([]string, 0, len(groups))
	for vc := range groups {
		vcs = append(vcs, vc)
	}
	sort.Strings(vcs)
	out := make([]Queue, 0, len(vcs))
	for _, vc := range vcs {
		out = append(out, Queue{VC: vc, Jobs: groups[vc]})
	}
	return out
}

func queuesString(qs []Queue) string {
	var out []string
	for _, q := range qs {
		out = append(out, fmt.Sprint(q.VC, ids(q.Jobs)))
	}
	return fmt.Sprint(out)
}

// waitingWorld is a three-VC trace whose order is the trace's alone: submit
// times tie within a VC and across VCs, and IDs run against the trace order,
// so a queue kept by (Submit, ID) would not match.
func waitingWorld(rng *rand.Rand, n int) *trace.Trace {
	cfg := workload.Config{Model: workload.ResNet18, BatchSize: 64}
	vcs := []string{"vcB", "vcA", "vcC"}
	jobs := make([]*job.Job, n)
	for i := range jobs {
		gpus := []int{1, 1, 2, 4}[rng.Intn(4)]
		submit := int64(i/6) * 10 // six at a time
		jobs[i] = job.New(n-i, "j", "u", vcs[rng.Intn(len(vcs))], gpus, submit, int64(200+rng.Intn(2000)), cfg)
	}
	return &trace.Trace{Name: "waiting", Days: 1, Jobs: jobs,
		Cluster: cluster.Spec{GPUsPerNode: 8, GPUMemMB: workload.GPUMemMBCap,
			VCs: []cluster.VCSpec{{Name: "vcA", Nodes: 1}, {Name: "vcB", Nodes: 1}, {Name: "vcC", Nodes: 1}}}}
}

// TestWaitingSetMatchesOldScans drives random operation streams through Env
// — start, pack, elastic start and resize, preempt, profile, stop profiling,
// fault kills with a requeue backoff — while the clock admits arrivals, and
// after every operation compares Env.Queues with the scan it replaced. Fatal
// invariants audit the index from the inside each tick.
func TestWaitingSetMatchesOldScans(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := quietSpec()
		spec.BackoffSec = 25 // killed jobs hide for a few ticks
		s := New(waitingWorld(rng, 120), &handSched{}, Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1,
			Chaos: &spec, Invariants: NewInvariantChecker(true)})
		env := &Env{s: s}
		pick := func(js []*job.Job) *job.Job {
			if len(js) == 0 {
				return nil
			}
			return js[rng.Intn(len(js))]
		}
		hidden := 0
		for step := 0; step < 1500; step++ {
			waiting, running := pending(env), env.Running()
			switch op := rng.Intn(12); {
			case op == 0:
				s.StepOnce()
			case op < 4:
				if j := pick(waiting); j != nil {
					env.StartExclusive(j)
				}
			case op == 4:
				// (Not onto an elastic partner: packing takes the partner's
				// GPU set, which is then smaller than the job's demand.)
				if j, p := pick(waiting), pick(running); j != nil && p != nil && env.ElasticAlloc(p) == 0 {
					env.StartShared(j, p)
				}
			case op == 5:
				if j := pick(waiting); j != nil {
					env.StartElastic(j, 1+rng.Intn(j.GPUs))
				}
			case op == 6:
				if j := pick(running); j != nil {
					env.ResizeElastic(j, 1+rng.Intn(j.GPUs))
				}
			case op == 7:
				if j := pick(running); j != nil {
					env.Preempt(j, 62)
				}
			case op == 8:
				if j := pick(waiting); j != nil {
					env.StartProfiling(j)
				}
			case op == 9:
				if j := pick(env.Profiling()); j != nil {
					env.StopProfiling(j)
				}
			case op == 10:
				if j := pick(append(running, env.Profiling()...)); j != nil {
					s.killJob(j, "job-crash")
				}
			default:
				if j := pick(waiting); j != nil {
					env.Admit(j)
				}
			}
			if got, want := queuesString(env.Queues()), queuesString(oldQueues(s)); got != want {
				t.Fatalf("seed %d step %d: Queues() = %s, the old grouping says %s", seed, step, got, want)
			}
			if len(s.backoff) > 0 && s.waitingCount() > len(oldPending(s)) {
				hidden++
			}
		}
		if hidden == 0 {
			t.Fatalf("seed %d: no step had a backoff-hidden job; the filtered path went untested", seed)
		}
		// The run carries on from wherever the stream left it.
		s.sched.(*handSched).on = true
		if res := s.Run(); res.Unfinished != 0 {
			t.Fatalf("seed %d: run did not finish afterwards: %s", seed, res.Summary())
		}
	}
}

// TestQueuesViewIsASnapshot: FIFO ranges over a queue while its own
// placements take jobs out of it, Tiresias while its preemptions put jobs
// back. A view must keep the population it was taken over whatever the
// engine does next, as TestRunningViewIsASnapshot demands of residents.
func TestQueuesViewIsASnapshot(t *testing.T) {
	var jobs []*job.Job
	for id := 1; id <= 9; id++ {
		jobs = append(jobs, mkJob(id, 1, 0, 5000))
	}
	s, env, _ := newHandSim(t, jobs...)
	all := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	check := func(step string, view []*job.Job, want, now []int) {
		t.Helper()
		if got := ids(view); !slices.Equal(got, want) {
			t.Fatalf("%s: earlier view now reads %v, want %v", step, got, want)
		}
		var got []int
		if qs := env.Queues(); len(qs) > 0 {
			got = ids(qs[0].Jobs)
		}
		if !slices.Equal(got, now) {
			t.Fatalf("%s: fresh view reads %v, want %v", step, got, now)
		}
	}

	view := env.Queues()[0].Jobs
	check("taken", view, all, all)

	// FIFO's shape: place from the head while ranging over the view.
	for _, j := range view[:3] {
		if !env.StartExclusive(j) {
			t.Fatalf("setup: start %d", j.ID)
		}
	}
	check("head placements", view, all, []int{4, 5, 6, 7, 8, 9})

	v2 := env.Queues()[0].Jobs
	env.StartExclusive(s.byID(6)) // out of the middle, as SJF does
	check("middle placement", view, all, []int{4, 5, 7, 8, 9})
	check("middle placement", v2, []int{4, 5, 6, 7, 8, 9}, []int{4, 5, 7, 8, 9})

	v3 := env.Queues()[0].Jobs
	env.Preempt(s.byID(2), 0) // back in front of the view's first element
	check("requeue in front", v3, []int{4, 5, 7, 8, 9}, []int{2, 4, 5, 7, 8, 9})

	v4 := env.Queues()[0].Jobs
	env.StartExclusive(s.byID(9)) // off the tail …
	env.Preempt(s.byID(6), 0)     // … and one back into the middle
	check("tail and middle", v4, []int{2, 4, 5, 7, 8, 9}, []int{2, 4, 5, 6, 7, 8})
	env.Preempt(s.byID(9), 0) // the tail slot is written again
	check("tail rewritten", v4, []int{2, 4, 5, 7, 8, 9}, []int{2, 4, 5, 6, 7, 8, 9})
	check("tail rewritten", view, all, []int{2, 4, 5, 6, 7, 8, 9})

	// append to a view reallocates; it must not land in the engine's array.
	q := &s.waiting[0]
	q.jobs = append(make([]*job.Job, 0, 16), q.jobs...)
	v5 := env.Queues()[0].Jobs
	if grown := append(v5, s.byID(1)); len(grown) != len(v5)+1 {
		t.Fatal("append did not grow the caller's slice")
	}
	if slices.Contains(q.jobs[:cap(q.jobs)], s.byID(1)) {
		t.Fatal("append to a view wrote job 1 into the engine's queue")
	}
}

// TestQueuesDoesNotAllocate: with nobody in a requeue backoff a round's
// Queues() is the engine's own slices behind a reused header — FIFO's round
// over a deep queue costs what it places, not what is waiting.
func TestQueuesDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(waitingWorld(rng, 60), &handSched{}, Options{Tick: 10, SchedulerEvery: 10})
	env := &Env{s: s}
	for s.arriveIdx < len(s.jobs) {
		s.StepOnce()
	}
	var n int
	if a := testing.AllocsPerRun(100, func() {
		for _, q := range env.Queues() {
			n += len(q.Jobs)
		}
	}); a != 0 {
		t.Fatalf("Queues() allocates %v times per call, want 0", a)
	}
	if n != 100*60 && n != 101*60 {
		t.Fatalf("Queues() handed out %d jobs over the runs, want 60 a call", n)
	}
}

// TestInvariantsCatchBrokenWaitingSet corrupts the index the three ways the
// checker guards: a waiting job missing from it, a member that is not
// waiting, and a queue out of trace order.
func TestInvariantsCatchBrokenWaitingSet(t *testing.T) {
	build := func() (*Sim, *Env, *InvariantChecker) {
		s, env, _ := newHandSim(t, mkJob(1, 1, 0, 5000), mkJob(2, 1, 0, 5000), mkJob(3, 1, 0, 5000))
		c := NewInvariantChecker(false)
		s.opts.Invariants = c
		s.checkInvariants()
		if c.Count() != 0 {
			t.Fatalf("healthy state reported: %v", c.Samples())
		}
		return s, env, c
	}
	mentions := func(c *InvariantChecker, text string) bool {
		return slices.ContainsFunc(c.Samples(), func(v string) bool { return strings.Contains(v, text) })
	}

	s, _, c := build()
	s.dequeue(s.byID(2)) // State still says Pending
	s.checkInvariants()
	if !mentions(c, "not in the waiting set") {
		t.Errorf("waiting job missing from the index not reported: %v", c.Samples())
	}

	s, _, c = build()
	s.byID(2).State = job.Finished // the queue still lists it
	s.byID(2).Finish = s.now
	s.byID(2).RemainingWork = 0
	s.checkInvariants()
	if !mentions(c, "in the waiting set with state") {
		t.Errorf("non-waiting member not reported: %v", c.Samples())
	}

	s, _, c = build()
	q := &s.waiting[0]
	q.idx[0], q.idx[1] = q.idx[1], q.idx[0]
	q.jobs[0], q.jobs[1] = q.jobs[1], q.jobs[0]
	s.checkInvariants()
	if !mentions(c, "out of trace order") {
		t.Errorf("swapped members not reported: %v", c.Samples())
	}
}
