package sim

import (
	"testing"

	"repro/internal/dtrace"
	"repro/internal/trace"
)

// traced runs the trace under sched with a decision-trace recorder and
// returns the events it recorded.
func traced(t *testing.T, tr *trace.Trace, sched Scheduler, opts Options) []dtrace.Event {
	t.Helper()
	rec := dtrace.New()
	opts.DecisionTrace = rec
	if res := New(tr, sched, opts).Run(); res.Unfinished != 0 {
		t.Fatalf("%d jobs unfinished", res.Unfinished)
	}
	return rec.Events()
}

// TestTimelineRecordsLifecycle: the decision trace is the run's timeline. A
// job placed alone and one packed beside it each start once and retire once,
// in clock order.
func TestTimelineRecordsLifecycle(t *testing.T) {
	tr := mkTrace(mkJob(1, 2, 0, 300), mkJob(2, 2, 0, 300))
	evs := traced(t, tr, sharingSched{}, Options{Tick: 10})
	kinds := map[dtrace.Action]int{}
	for i, e := range evs {
		kinds[e.Action]++
		if i > 0 && e.Tick < evs[i-1].Tick {
			t.Fatal("trace not chronological")
		}
	}
	if kinds[dtrace.ActPlace] != 1 || kinds[dtrace.ActPack] != 1 {
		t.Fatalf("start events wrong: %v", kinds)
	}
	if kinds[dtrace.ActRetire] != 2 {
		t.Fatalf("retire events wrong: %v", kinds)
	}
}

// TestTimelineRecordsPreemptionAndProfiling: the trace carries the engine's
// preemptions and both profiling transitions.
func TestTimelineRecordsPreemptionAndProfiling(t *testing.T) {
	tr := mkTrace(mkJob(1, 8, 0, 1000), mkJob(2, 8, 300, 300))
	saw := map[dtrace.Action]bool{}
	for _, e := range traced(t, tr, &preemptSched{}, Options{Tick: 10}) {
		saw[e.Action] = true
	}
	if !saw[dtrace.ActPreempt] {
		t.Fatal("preemption not recorded")
	}

	tr2 := mkTrace(mkJob(1, 1, 0, 500))
	saw2 := map[dtrace.Action]bool{}
	for _, e := range traced(t, tr2, &profSched{tprof: 100},
		Options{Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1}) {
		saw2[e.Action] = true
	}
	if !saw2[dtrace.ActProfileStart] || !saw2[dtrace.ActProfileStop] {
		t.Fatalf("profiling transitions missing: %v", saw2)
	}
}
