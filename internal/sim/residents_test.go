package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/job"
)

// handSched is a scheduler the test switches on: off, the test drives
// placement through Env itself; on, it places everything FIFO so a run can
// finish.
type handSched struct{ on bool }

func (*handSched) Name() string { return "test-hand" }
func (h *handSched) Tick(env *Env) {
	if !h.on {
		return
	}
	for _, j := range pending(env) {
		env.StartExclusive(j)
	}
}

// newHandSim returns a run whose arrivals at t=0 are admitted and unplaced.
func newHandSim(t *testing.T, jobs ...*job.Job) (*Sim, *Env, *handSched) {
	t.Helper()
	h := &handSched{}
	spec := quietSpec()
	s := New(mkTrace(jobs...), h, Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1,
		Chaos: &spec, Invariants: NewInvariantChecker(true)})
	s.StepOnce()
	return s, &Env{s: s}, h
}

// advanceTicks integrates n ticks of progress without running the rest of a
// tick: a scheduler round would clear the dirty flag the tests look at.
func advanceTicks(s *Sim, n int) {
	for i := 0; i < n; i++ {
		s.now += s.opts.Tick
		s.advance(float64(s.opts.Tick))
	}
}

func ids(js []*job.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// TestEvictIsTheOneWayOut drives each of the five ways a job stops being
// resident and checks they all leave the engine in the same state: GPUs
// freed, the job in no resident set, its placement record gone with it (so
// no prediction of it is live), the job waiting again unless it retired, and
// dirty set so the scheduler hears about the capacity. The elastic rollback
// used to clear only running and elastic, leaving speeds and genSpeed behind
// and dirty unset.
func TestEvictIsTheOneWayOut(t *testing.T) {
	cases := []struct {
		name string
		// place makes job 1 resident; leave takes it out again.
		place func(s *Sim, env *Env, j *job.Job) bool
		leave func(s *Sim, env *Env, j *job.Job)
		want  job.State
	}{
		{"retire",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartExclusive(j) },
			func(s *Sim, env *Env, j *job.Job) { advanceTicks(s, 3) }, // 15 s of work, 10 s a tick
			job.Finished},
		{"preempt",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartExclusive(j) },
			func(s *Sim, env *Env, j *job.Job) { env.Preempt(j, 62) }, job.Pending},
		{"kill",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartExclusive(j) },
			func(s *Sim, env *Env, j *job.Job) { s.killJob(j, "job-crash") }, job.Pending},
		{"kill-while-profiling",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartProfiling(j) },
			func(s *Sim, env *Env, j *job.Job) { s.killJob(j, "job-crash") }, job.Pending},
		{"stop-profiling",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartProfiling(j) },
			func(s *Sim, env *Env, j *job.Job) { env.StopProfiling(j) }, job.Queued},
		{"elastic-rollback",
			func(s *Sim, env *Env, j *job.Job) bool { return env.StartElastic(j, 4) },
			func(s *Sim, env *Env, j *job.Job) {
				// Unreachable through Env alone: take the node down under the
				// job, so neither the new size nor the old one can be placed
				// once ResizeElastic has freed it.
				s.main.FailNode(0)
				if env.ResizeElastic(j, 2) {
					t.Fatal("resize succeeded on a down node")
				}
				s.main.RepairNode(0)
			}, job.Pending},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, env, h := newHandSim(t, mkJob(1, 8, 0, 15), mkJob(2, 1, 0, 15))
			j := s.byID(1)
			if !tc.place(s, env, j) {
				t.Fatal("setup: placement failed")
			}
			s.recomputeSpeeds()
			s.refreshPredictions() // the event engine's per-job record
			s.dirty = false

			tc.leave(s, env, j)

			if j.State != tc.want {
				t.Fatalf("state = %v, want %v", j.State, tc.want)
			}
			if s.running.has(1) || s.profiling.has(1) {
				t.Error("job still in a resident set")
			}
			if s.main.Allocated(1) || s.profiler.Allocated(1) {
				t.Error("job still holds GPUs")
			}
			if s.running.rec(1) != nil || s.profiling.rec(1) != nil {
				t.Error("the job's placement record outlived the placement")
			}
			if len(s.running.recs) != len(s.running.jobs) || len(s.profiling.recs) != len(s.profiling.jobs) {
				t.Error("a resident set and its records differ in length")
			}
			if env.ElasticAlloc(j) != 0 || env.ProfilingElapsed(j) != 0 {
				t.Error("Env still reports an allocation or a profiling run")
			}
			if s.predSeqOf(1) != 0 {
				t.Error("a completion prediction of the job is still live")
			}
			if got, want := slices.Contains(ids(pending(env)), 1), tc.want != job.Finished; got != want {
				t.Errorf("job waiting = %v, want %v", got, want)
			}
			if !s.dirty {
				t.Error("dirty not set: the scheduler is not told capacity came back")
			}

			// The run carries on from there under fatal invariants.
			h.on = true
			if res := s.Run(); res.Unfinished != 0 {
				t.Fatalf("run did not finish afterwards: %s", res.Summary())
			}
		})
	}
}

// TestEvictLeavesANonResidentAlone: the one eviction path checks its own
// precondition. Asked about a job that is on neither cluster it reports
// false, leaves the job waiting and does not force a scheduler round.
func TestEvictLeavesANonResidentAlone(t *testing.T) {
	s, env, _ := newHandSim(t, mkJob(1, 1, 0, 15))
	j := s.byID(1)
	if !env.StartExclusive(j) {
		t.Fatal("setup: placement failed")
	}
	env.Preempt(j, 62)
	s.dirty = false
	if s.evict(j) {
		t.Errorf("evict reported true for a %v job", j.State)
	}
	if got := ids(pending(env)); !slices.Equal(got, []int{1}) {
		t.Errorf("evict of a waiting job left the waiting set %v", got)
	}
	if s.dirty {
		t.Error("evict of a non-resident forced a scheduler round")
	}
	s.killJob(j, "job-crash")
	if j.Restarts != 0 || s.jobKills != 0 {
		t.Errorf("killJob counted a kill of a non-resident: restarts %d, kills %d", j.Restarts, s.jobKills)
	}
}

// TestRunningViewIsASnapshot pins the contract schedulers lean on (Horus
// keeps one Running() slice across its own placements, Lucid's profiler
// stops jobs while ranging over Profiling()): a view never changes after it
// was taken, whatever the engine does next, and appending to it never
// writes into the engine's array. Returning the live slice without
// copy-on-write fails every step below.
func TestRunningViewIsASnapshot(t *testing.T) {
	s, env, _ := newHandSim(t,
		mkJob(1, 1, 0, 15), mkJob(2, 1, 0, 5000), mkJob(3, 1, 0, 5000), mkJob(4, 1, 0, 5000),
		mkJob(5, 1, 0, 5000), mkJob(6, 1, 0, 5000), mkJob(7, 1, 0, 5000))
	for _, id := range []int{1, 2, 4, 6} {
		if !env.StartExclusive(s.byID(id)) {
			t.Fatalf("setup: start %d", id)
		}
	}
	// Spare capacity behind the set, so an append through an unclipped view
	// would land in engine memory rather than reallocate.
	s.running.jobs = append(make([]*job.Job, 0, 16), s.running.jobs...)

	check := func(step string, view []*job.Job, want, now []int) {
		t.Helper()
		if got := ids(view); !slices.Equal(got, want) {
			t.Fatalf("%s: earlier view now reads %v, want %v", step, got, want)
		}
		if got := ids(env.Running()); !slices.Equal(got, now) {
			t.Fatalf("%s: fresh view reads %v, want %v", step, got, now)
		}
	}

	view := env.Running()
	want := []int{1, 2, 4, 6}
	check("taken", view, want, want)

	env.StartExclusive(s.byID(3)) // lands in the middle
	check("StartExclusive", view, want, []int{1, 2, 3, 4, 6})

	v2 := env.Running()
	if !env.StartShared(s.byID(5), s.byID(4)) {
		t.Fatal("setup: pack 5 with 4")
	}
	check("StartShared", view, want, []int{1, 2, 3, 4, 5, 6})
	check("StartShared", v2, []int{1, 2, 3, 4, 6}, []int{1, 2, 3, 4, 5, 6})

	v3 := env.Running()
	env.Preempt(s.byID(2), 0)
	check("Preempt", v3, []int{1, 2, 3, 4, 5, 6}, []int{1, 3, 4, 5, 6})

	v4 := env.Running()
	advanceTicks(s, 3) // job 1 (15 s) retires
	check("retire", v4, []int{1, 3, 4, 5, 6}, []int{3, 4, 5, 6})
	check("retire", view, want, []int{3, 4, 5, 6})

	// append to a view reallocates; it must not show up in the engine's array.
	v5 := env.Running()
	grown := append(v5, s.byID(7))
	if len(grown) != len(v5)+1 {
		t.Fatal("append did not grow the caller's slice")
	}
	for _, j := range s.running.jobs[:cap(s.running.jobs)] {
		if j == s.byID(7) {
			t.Fatal("append to a view wrote job 7 into the engine's resident array")
		}
	}
	check("append", v5, []int{3, 4, 5, 6}, []int{3, 4, 5, 6})
}

func TestProfilingViewIsASnapshot(t *testing.T) {
	s, env, _ := newHandSim(t, mkJob(1, 1, 0, 5000), mkJob(2, 1, 0, 5000), mkJob(3, 1, 0, 5000))
	env.StartProfiling(s.byID(1))
	env.StartProfiling(s.byID(3))

	view := env.Profiling()
	for _, j := range view { // the profiler's own loop shape
		env.StopProfiling(j)
	}
	env.StartProfiling(s.byID(2))
	if got := ids(view); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("earlier view now reads %v, want [1 3]", got)
	}
	if got := ids(env.Profiling()); !slices.Equal(got, []int{2}) {
		t.Fatalf("fresh view reads %v, want [2]", got)
	}
}

// TestViewsDoNotAllocate: with no placement change in between, Running() and
// Profiling() hand out the engine's own array — the binder asks once per
// queued job per round.
func TestViewsDoNotAllocate(t *testing.T) {
	s, env, _ := newHandSim(t, mkJob(1, 1, 0, 5000), mkJob(2, 1, 0, 5000), mkJob(3, 1, 0, 5000))
	env.StartExclusive(s.byID(1))
	env.StartExclusive(s.byID(2))
	env.StartProfiling(s.byID(3))
	var n int
	if a := testing.AllocsPerRun(100, func() { n += len(env.Running()) + len(env.Profiling()) }); a != 0 {
		t.Fatalf("Running()+Profiling() allocate %v times per call, want 0", a)
	}
	if n == 0 {
		t.Fatal("views were empty")
	}
}

// TestInvariantsCatchBrokenResidentSet corrupts the set both ways the
// checker guards: out of ID order, and disagreeing with the jobs' States.
func TestInvariantsCatchBrokenResidentSet(t *testing.T) {
	build := func() (*Sim, *InvariantChecker) {
		s, env, _ := newHandSim(t, mkJob(1, 1, 0, 5000), mkJob(2, 1, 0, 5000))
		env.StartExclusive(s.byID(1))
		env.StartExclusive(s.byID(2))
		c := NewInvariantChecker(false)
		s.opts.Invariants = c
		s.checkInvariants()
		if c.Count() != 0 {
			t.Fatalf("healthy state reported: %v", c.Samples())
		}
		return s, c
	}
	mentions := func(c *InvariantChecker, text string) bool {
		return slices.ContainsFunc(c.Samples(), func(v string) bool { return strings.Contains(v, text) })
	}

	s, c := build()
	s.running.jobs[0], s.running.jobs[1] = s.running.jobs[1], s.running.jobs[0]
	s.checkInvariants()
	if !mentions(c, "out of ID order") {
		t.Errorf("swapped members not reported: %v", c.Samples())
	}

	s, c = build()
	s.running.remove(2) // State still says Running
	s.checkInvariants()
	if !mentions(c, "not in the running set") {
		t.Errorf("Running job missing from the set not reported: %v", c.Samples())
	}

	s, c = build()
	s.byID(1).State = job.Queued // the set still lists it
	s.checkInvariants()
	if !mentions(c, "in running set with state") {
		t.Errorf("non-Running member not reported: %v", c.Samples())
	}
}

// TestStartElasticRefusesWhatTheOtherStartsRefuse: StartElastic had its own
// guard (Running or Finished only), so it would put a job that is on the
// profiling cluster on the main one as well, and bring a Failed job — its
// retries exhausted for good — back to life.
func TestStartElasticRefusesWhatTheOtherStartsRefuse(t *testing.T) {
	spec := quietSpec()
	spec.MaxRetries = 0 // the first kill is final
	s := New(mkTrace(mkJob(1, 2, 0, 5000), mkJob(2, 2, 0, 5000)), &handSched{},
		Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1,
			Chaos: &spec, Invariants: NewInvariantChecker(true)})
	s.StepOnce()
	env := &Env{s: s}
	prof, failed := s.byID(1), s.byID(2)

	if !env.StartProfiling(prof) {
		t.Fatal("setup: profiling failed")
	}
	if env.StartElastic(prof, 1) {
		t.Error("StartElastic placed a job that is still profiling")
	}
	if prof.State != job.Profiling || s.main.Allocated(1) || s.running.has(1) {
		t.Errorf("profiling job touched: state %v, main allocation %v", prof.State, s.main.Allocated(1))
	}

	if !env.StartExclusive(failed) {
		t.Fatal("setup: placement failed")
	}
	s.killJob(failed, "job-crash")
	if failed.State != job.Failed {
		t.Fatalf("setup: state %v after the kill, want Failed", failed.State)
	}
	if env.StartElastic(failed, 1) {
		t.Error("StartElastic resurrected a Failed job")
	}
	if failed.State != job.Failed || s.main.Allocated(2) {
		t.Errorf("failed job touched: state %v, main allocation %v", failed.State, s.main.Allocated(2))
	}
	s.checkInvariants()
}

// TestStartSharedRefusesAnElasticPartnerBelowDemand: StartShared compared the
// two jobs' demands, not the partner's allocation, so a job packed onto an
// elastic partner running on 2 of its 4 GPUs and then ran on those 2 itself
// ("job 2 holds 2 GPUs, expected 4"). A refused call changes no state; at
// full size the partner takes company as before.
func TestStartSharedRefusesAnElasticPartnerBelowDemand(t *testing.T) {
	rec := dtrace.New()
	s := New(mkTrace(mkJob(1, 4, 0, 5000), mkJob(2, 4, 0, 5000)), &handSched{},
		Options{Tick: 10, SchedulerEvery: 10, DecisionTrace: rec, Invariants: NewInvariantChecker(true)})
	s.StepOnce()
	env := &Env{s: s}
	partner, j := s.byID(1), s.byID(2)
	for _, x := range []*job.Job{partner, j} {
		x.Profiled, x.Profile = true, x.Config.Profile()
	}
	if !env.StartElastic(partner, 2) {
		t.Fatal("setup: elastic placement failed")
	}
	if env.StartShared(j, partner) {
		t.Fatalf("packed onto a partner holding %d of its %d GPUs", env.ElasticAlloc(partner), partner.GPUs)
	}
	if j.State != job.Pending || s.main.Allocated(2) || s.running.has(2) || s.main.PartnerOf(1) >= 0 {
		t.Fatalf("refused pack changed state: job 2 %v, allocated %v", j.State, s.main.Allocated(2))
	}
	evs := rec.Events()
	if last := evs[len(evs)-1]; last.Action != dtrace.ActPackReject || last.Reason != "partner-below-demand" {
		t.Fatalf("last trace event %v %q, want a pack-reject naming partner-below-demand", last.Action, last.Reason)
	}
	s.StepOnce() // fatal invariants: every running job holds its demand

	if !env.ResizeElastic(partner, 4) || !env.StartShared(j, partner) {
		t.Fatal("a partner at full size refused the pack")
	}
	s.StepOnce()
}
