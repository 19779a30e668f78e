package sim

import "testing"

func TestTimelineRecordsLifecycle(t *testing.T) {
	tr := mkTrace(mkJob(1, 2, 0, 300), mkJob(2, 2, 0, 300))
	res := New(tr, sharingSched{}, Options{Tick: 10, RecordTimeline: true}).Run()
	if len(res.Timeline) == 0 {
		t.Fatal("timeline empty")
	}
	kinds := map[EventKind]int{}
	for _, e := range res.Timeline {
		kinds[e.Kind]++
	}
	if kinds[EvStart] != 1 || kinds[EvStartShared] != 1 {
		t.Fatalf("start events wrong: %v", kinds)
	}
	if kinds[EvFinish] != 2 {
		t.Fatalf("finish events wrong: %v", kinds)
	}
	// Chronological order.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Time < res.Timeline[i-1].Time {
			t.Fatal("timeline not chronological")
		}
	}
}

func TestTimelineOffByDefault(t *testing.T) {
	tr := mkTrace(mkJob(1, 2, 0, 100))
	res := New(tr, fifoLike{}, Options{Tick: 10}).Run()
	if len(res.Timeline) != 0 {
		t.Fatal("timeline recorded without opt-in")
	}
}

func TestTimelineRecordsPreemptionAndProfiling(t *testing.T) {
	tr := mkTrace(mkJob(1, 8, 0, 1000), mkJob(2, 8, 300, 300))
	res := New(tr, &preemptSched{}, Options{Tick: 10, RecordTimeline: true}).Run()
	saw := map[EventKind]bool{}
	for _, e := range res.Timeline {
		saw[e.Kind] = true
	}
	if !saw[EvPreempt] {
		t.Fatal("preemption not recorded")
	}

	tr2 := mkTrace(mkJob(1, 1, 0, 500))
	res2 := New(tr2, &profSched{tprof: 100}, Options{
		Tick: 10, SchedulerEvery: 10, ProfilerNodes: 1, RecordTimeline: true}).Run()
	saw2 := map[EventKind]bool{}
	for _, e := range res2.Timeline {
		saw2[e.Kind] = true
	}
	if !saw2[EvProfileStart] || !saw2[EvProfileStop] {
		t.Fatalf("profiling transitions missing: %v", saw2)
	}
}
