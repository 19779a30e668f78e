package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// queueWorld is a small congested Venus-shaped world (the golden world's
// shape, on a seed of its own) and models trained on its history month.
func queueWorld(t *testing.T, seed uint64) (*trace.Trace, *Models) {
	t.Helper()
	spec := trace.Venus()
	spec.Name = fmt.Sprint("queue-", seed)
	spec.Seed = seed
	spec.Nodes = 8
	spec.NumVCs = 3
	spec.NumJobs = 600
	spec.AvgDuration = 3000
	spec.Days = 3
	g := trace.NewGenerator(spec)
	hist := g.Emit(600)
	eval := g.Emit(450)
	models, err := TrainModels(hist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eval, models
}

// waiting is the engine's waiting set as one list in (Submit, ID) order.
func waiting(env *sim.Env) []*job.Job {
	var out []*job.Job
	for _, q := range env.Queues() {
		out = append(out, q.Jobs...)
	}
	slices.SortFunc(out, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(a.Submit, b.Submit), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// TestQueueMatchesPerRoundSort: in every round, orchestrate walks exactly the
// jobs, in exactly the order and under exactly the keys, that re-keying and
// sorting the round's waiting set gives — orderQueue over the waiting set
// taken at the top of orchestrate, which is the old orderQueue(waiting ++
// back) (the profiler has run by then, so its hand-backs are waiting and what
// it took is not). The profiler's kept list is held to the same waiting set:
// by then it must be exactly the visible Pending jobs, by (Submit, ID).
// Random worlds × the configurations that change what enters the queue or
// its keys: the estimator ablated (submit order), FIFO profiling, a refit
// every day (re-key), and faults that requeue placed and profiling jobs
// behind a backoff (Env.Requeued), and that world again snapshotted mid-run
// and resumed on a fresh instance, which builds both lists from the waiting
// set. Both fault worlds run once more in a burst, where FIFO profiling on a
// one-node partition keeps a backlog: requeued unprofiled jobs must rejoin it
// at their place, and a resumed instance must build it in order.
func TestQueueMatchesPerRoundSort(t *testing.T) {
	fifoProfiling := func(c *Config) { c.DisableSpaceAware, c.TprofSec = true, 600 }
	cases := []struct {
		name   string
		cfg    func(*Config)
		chaos  bool
		resume bool
		burst  bool // arrivals four times as dense, one profiling node
	}{
		{name: "default"},
		{name: "no-estimator", cfg: func(c *Config) { c.DisableEstimator = true }},
		{name: "no-space-aware", cfg: func(c *Config) { c.DisableSpaceAware = true }},
		{name: "refit", cfg: func(c *Config) { c.UpdateIntervalSec = 86400 }},
		{name: "chaos", chaos: true},
		{name: "chaos-resumed", chaos: true, resume: true},
		{name: "chaos-burst-no-space-aware", cfg: fifoProfiling, chaos: true, burst: true},
		{name: "chaos-burst-no-space-aware-resumed", cfg: fifoProfiling, chaos: true, burst: true, resume: true},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		eval, models := queueWorld(t, seed)
		burst := *eval
		burst.Jobs = nil
		for _, j := range eval.Jobs {
			cp := *j
			cp.Submit /= 4
			burst.Jobs = append(burst.Jobs, &cp)
		}
		for _, tc := range cases {
			cfg := DefaultConfig()
			cfg.UpdateIntervalSec = 0
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			opts := func() sim.Options {
				o := sim.Options{Tick: 60, SchedulerEvery: 60, ProfilerNodes: 2,
					Invariants: sim.NewInvariantChecker(true)}
				if tc.burst {
					o.ProfilerNodes = 1
				}
				if tc.chaos {
					cs := chaos.DefaultSpec()
					cs.NodeFailPerDay, cs.GPUFailPerDay, cs.JobCrashPerDay = 4, 0.5, 6
					cs.MaxRetries, cs.BackoffSec = 3, 120
					o.Chaos = &cs
				}
				return o
			}
			world := eval
			if tc.burst {
				world = &burst
			}
			l := New(models.Clone(), cfg)
			s := sim.New(world, l, opts())
			if tc.resume {
				cut := int64(36 * 3600)
				if tc.burst {
					cut /= 4
				}
				pre := sim.New(world, New(models.Clone(), cfg), opts())
				if done := pre.RunUntil(cut); done {
					t.Fatalf("seed %d: run completed before the cut", seed)
				}
				var err error
				if s, err = pre.Fork(l, opts()); err != nil {
					t.Fatal(err)
				}
			}
			long, requeued, reprofiled := 0, 0, 0
			l.roundHook = func(env *sim.Env, queue []keyedJob) {
				now := env.Now()
				w := waiting(env)
				var pend []*job.Job
				for _, j := range w {
					if j.State == job.Pending {
						pend = append(pend, j)
						if j.Restarts > 0 {
							reprofiled++
						}
					}
				}
				if !slices.Equal(l.unprofiled, pend) {
					t.Fatalf("seed %d %s t=%d: the profiler list is %v, the waiting set's Pending jobs by (Submit, ID) are %v",
						seed, tc.name, now, jobIDs(l.unprofiled), jobIDs(pend))
				}
				want := l.orderQueue(w, now)
				if len(queue) != len(want) {
					t.Fatalf("seed %d %s t=%d: the round walks %d jobs, the per-round sort %d:\n  %v\n  %v",
						seed, tc.name, now, len(queue), len(want), keyedIDs(queue), keyedIDs(want))
				}
				for i := range want {
					if queue[i].job != want[i].job || queue[i].prio != want[i].prio {
						t.Fatalf("seed %d %s t=%d: position %d is job %d key %v, the per-round sort has job %d key %v",
							seed, tc.name, now, i, queue[i].job.ID, queue[i].prio, want[i].job.ID, want[i].prio)
					}
					if want[i].job.Restarts > 0 {
						requeued++
					}
				}
				if len(want) > 1 {
					long++
				}
			}
			res := s.Run()
			if res.Unfinished != 0 {
				t.Fatalf("seed %d %s: %d jobs unfinished", seed, tc.name, res.Unfinished)
			}
			if long == 0 {
				t.Fatalf("seed %d %s: no round had two jobs to order", seed, tc.name)
			}
			if tc.name == "refit" && !l.ModelsRefit() {
				t.Fatalf("seed %d refit: the Update Engine never refit", seed)
			}
			if tc.chaos && requeued == 0 {
				t.Fatalf("seed %d %s: no requeued job was ever waiting to be ordered", seed, tc.name)
			}
			if tc.burst && !tc.resume && reprofiled == 0 {
				t.Fatalf("seed %d %s: no requeued job was ever waiting to be profiled", seed, tc.name)
			}
		}
	}
}

func jobIDs(js []*job.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func keyedIDs(q []keyedJob) []int {
	out := make([]int, len(q))
	for i, k := range q {
		out[i] = k.job.ID
	}
	return out
}

// TestResumedLucidMatchesUninterrupted: a run snapshotted and resumed on a
// fresh Lucid must be, a day later, the run that was never interrupted —
// world and scheduler state serialize to the same bytes. The resumed
// instance rebuilds its queue and its profiler input from the waiting set,
// and the arrival count it restores is what keeps the throughput model's
// hourly counts, and the snapshot, unchanged.
func TestResumedLucidMatchesUninterrupted(t *testing.T) {
	eval, models := queueWorld(t, 1)
	opts := func() sim.Options {
		cs := chaos.DefaultSpec()
		cs.NodeFailPerDay, cs.JobCrashPerDay, cs.MaxRetries, cs.BackoffSec = 4, 6, 3, 120
		return sim.Options{Tick: 60, SchedulerEvery: 60, ProfilerNodes: 2, Chaos: &cs}
	}
	cfg := DefaultConfig()
	cfg.UpdateIntervalSec = 86400
	snapshot := func(s *sim.Sim) []byte {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const cut, later = 30 * 3600, 54 * 3600
	whole := sim.New(eval, New(models.Clone(), cfg), opts())
	if done := whole.RunUntil(cut); done {
		t.Fatal("run completed before the cut")
	}
	resumed, err := sim.Resume(eval, New(models.Clone(), cfg), opts(), bytes.NewReader(snapshot(whole)))
	if err != nil {
		t.Fatal(err)
	}
	whole.RunUntil(later)
	resumed.RunUntil(later)
	if !bytes.Equal(snapshot(whole), snapshot(resumed)) {
		t.Fatal("the resumed run's state differs from the uninterrupted run's a day later")
	}
}
