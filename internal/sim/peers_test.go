package sim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
)

// oldPeers is how Binder.FindPartner found its candidates before the engine
// indexed the running set: a scan of Env.Running for the VC and demand.
func oldPeers(env *Env, vc string, gpus int) []*job.Job {
	var out []*job.Job
	for _, j := range env.Running() {
		if j.VC == vc && j.GPUs == gpus {
			out = append(out, j)
		}
	}
	return out
}

// checkPeerViews compares Env.RunningWith with the scan for every VC and
// demand the world has, plus a VC and a demand it has not.
func checkPeerViews(t *testing.T, env *Env, where string) {
	t.Helper()
	for _, vc := range []string{"vcA", "vcB", "vcC", "nowhere"} {
		for _, gpus := range []int{1, 2, 4, 3} {
			if got, want := ids(env.RunningWith(vc, gpus)), ids(oldPeers(env, vc, gpus)); !slices.Equal(got, want) {
				t.Fatalf("%s: RunningWith(%s, %d) = %v, the scan says %v", where, vc, gpus, got, want)
			}
		}
	}
}

// peerSched places every waiting job, packed onto a RunningWith partner
// where the cluster takes it, and checks the views after each placement —
// the way Lucid's Binder reads them.
type peerSched struct {
	t     *testing.T
	where string
}

func (*peerSched) Name() string { return "test-peers" }
func (p *peerSched) Tick(env *Env) {
	checkPeerViews(p.t, env, p.where)
	for _, j := range pending(env) {
		placed := false
		for _, r := range env.RunningWith(j.VC, j.GPUs) {
			if env.ElasticAlloc(r) == 0 && env.Cluster().CanShare(r.ID, 0) {
				placed = env.StartShared(j, r)
				break
			}
		}
		if !placed {
			env.StartExclusive(j)
		}
		checkPeerViews(p.t, env, p.where)
	}
}

// TestRunningWithMatchesScan drives TestWaitingSetMatchesOldScans' random
// operation stream — start, pack, elastic start and resize, preempt, profile,
// fault kills with a requeue backoff — and after every operation compares
// Env.RunningWith for every VC and demand with a scan of Env.Running, and
// checks that a view taken before the operation still holds what it held.
// After every step, Env.Requeued must be exactly the jobs the step made
// visible again. The world is then snapshotted: the resumed run and a fork
// build the index afresh from the restored running set, and both must agree
// with the scan after every placement to the end of the run. Fatal
// invariants audit the index from the inside each tick.
func TestRunningWithMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := func() Options {
			spec := quietSpec()
			spec.BackoffSec = 25 // killed jobs hide for a few ticks
			return Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1,
				Chaos: &spec, Invariants: NewInvariantChecker(true)}
		}
		tr := waitingWorld(rng, 120)
		s := New(tr, &handSched{}, opts())
		env := &Env{s: s}
		pick := func(js []*job.Job) *job.Job {
			if len(js) == 0 {
				return nil
			}
			return js[rng.Intn(len(js))]
		}
		requeued := 0
		for step := 0; step < 1500; step++ {
			waiting, running := pending(env), env.Running()
			held := pick(running)
			var view []*job.Job
			var viewIDs []int
			if held != nil {
				view = env.RunningWith(held.VC, held.GPUs)
				viewIDs = ids(view)
			}
			switch op := rng.Intn(10); {
			case op < 2:
				var hidden []*job.Job
				for _, q := range s.waiting {
					for _, j := range q.jobs {
						if !s.visible(j) {
							hidden = append(hidden, j)
						}
					}
				}
				s.StepOnce()
				var want []int
				for _, j := range hidden {
					if s.visible(j) {
						want = append(want, j.ID)
					}
				}
				got := ids(env.Requeued())
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Requeued() = %v, the step made %v visible", seed, step, got, want)
				}
				requeued += len(got)
			case op < 4:
				if j := pick(waiting); j != nil {
					env.StartExclusive(j)
				}
			case op == 4:
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
			default:
				if j := pick(append(running, env.Profiling()...)); j != nil {
					s.killJob(j, "job-crash")
				}
			}
			if held != nil && !slices.Equal(ids(view), viewIDs) {
				t.Fatalf("seed %d step %d: a view of %s/%d changed under its holder: %v, was %v",
					seed, step, held.VC, held.GPUs, ids(view), viewIDs)
			}
			checkPeerViews(t, env, "stream")
		}
		if requeued == 0 {
			t.Fatalf("seed %d: no step made a requeued job visible; Requeued went untested", seed)
		}

		s.StepOnce() // a tick boundary, where Snapshot may be taken
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		resumed, err := Resume(tr, &peerSched{t: t, where: "resumed"}, opts(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fork, err := s.Fork(&peerSched{t: t, where: "fork"}, opts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Sim{resumed, fork} {
			if res := r.Run(); res.Unfinished != 0 {
				t.Fatalf("seed %d: continuation did not finish: %s", seed, res.Summary())
			}
		}
	}
}
