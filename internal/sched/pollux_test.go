package sched

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// globalPollux is Pollux with the admit loop it had before it walked
// Env.Queues: one pass over every waiting job in trace order, across VCs
// (Queues flattened and sorted by (Submit, ID), which is trace order on a
// generated world). vcs is the most VCs that had jobs waiting in one round.
type globalPollux struct {
	*Pollux
	vcs int
}

func (g *globalPollux) Tick(env *sim.Env) {
	var all []*job.Job
	qs := env.Queues()
	g.vcs = max(g.vcs, len(qs))
	for _, q := range qs {
		all = append(all, q.Jobs...)
	}
	slices.SortFunc(all, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(a.Submit, b.Submit), cmp.Compare(a.ID, b.ID))
	})
	for _, j := range all {
		g.admit(env, j)
	}
	g.realloc(env)
}

// TestPolluxPerVCAdmitMatchesGlobal: admitting VC by VC makes the decisions
// the trace-ordered pass over every VC made, because each admission reads and
// changes only its own VC. On multi-VC worlds with and without faults, both
// runs end in the same summary, every job starts and finishes at the same
// time in the same state, and the decision trace holds the same events; only
// the order of same-tick events from different VCs may differ.
func TestPolluxPerVCAdmitMatchesGlobal(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		spec := trace.Venus()
		spec.Name, spec.Seed = fmt.Sprint("pollux-", seed), seed
		spec.Nodes, spec.NumVCs, spec.NumJobs = 8, 3, 600
		spec.AvgDuration, spec.Days = 3000, 3
		tr := trace.NewGenerator(spec).Emit(450)
		for _, faults := range []bool{false, true} {
			run := func(s sim.Scheduler) (*sim.Result, []string) {
				rec := dtrace.New()
				opts := sim.Options{Tick: 60, SchedulerEvery: 60, DecisionTrace: rec,
					Invariants: sim.NewInvariantChecker(true)}
				if faults {
					cs := chaos.DefaultSpec()
					cs.NodeFailPerDay, cs.GPUFailPerDay, cs.JobCrashPerDay = 4, 0.5, 6
					cs.MaxRetries, cs.BackoffSec = 3, 120
					opts.Chaos = chaos.NewInjector(cs)
				}
				res := sim.New(tr, s, opts).Run()
				var events []string
				for _, ev := range rec.Events() {
					ev.Seq = 0
					b, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					events = append(events, string(b))
				}
				slices.Sort(events)
				return res, events
			}
			name := fmt.Sprintf("seed %d faults=%v", seed, faults)
			oracle := &globalPollux{Pollux: NewPollux()}
			want, wantEvents := run(oracle)
			got, gotEvents := run(NewPollux())
			if oracle.vcs < 2 {
				t.Fatalf("%s: jobs never waited in two VCs at once", name)
			}
			if g, w := got.Summary(), want.Summary(); g != w {
				t.Fatalf("%s: summary\n  %s\nthe global admit's\n  %s", name, g, w)
			}
			for i, j := range got.Jobs {
				o := want.Jobs[i]
				if j.FirstStart != o.FirstStart || j.Finish != o.Finish || j.State != o.State {
					t.Fatalf("%s: job %d started %d, finished %d, %v; the global admit's %d, %d, %v",
						name, j.ID, j.FirstStart, j.Finish, j.State, o.FirstStart, o.Finish, o.State)
				}
			}
			if !slices.Equal(gotEvents, wantEvents) {
				i := 0
				for i < min(len(gotEvents), len(wantEvents)) && gotEvents[i] == wantEvents[i] {
					i++
				}
				t.Fatalf("%s: %d events against the global admit's %d; first difference at sorted position %d",
					name, len(gotEvents), len(wantEvents), i)
			}
		}
	}
}
