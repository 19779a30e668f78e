package sched

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestSchedulerStateRoundTrips: the state a stateful baseline snapshots,
// restored into a fresh instance, snapshots to the same bytes. Each policy
// runs on the HOL world — Tiresias preempts the long job there — until every
// map its state holds is non-empty, so a RestoreState that drops any of them
// fails here rather than only in a resumed run that happens to diverge.
func TestSchedulerStateRoundTrips(t *testing.T) {
	type stateful interface {
		sim.Scheduler
		sim.SchedulerState
	}
	cases := []struct {
		name  string
		fresh func() stateful
		ready func(s stateful) bool
	}{
		{"tiresias", func() stateful { return NewTiresias() }, func(s stateful) bool {
			t := s.(*Tiresias)
			return len(t.startedAt) > 0 && len(t.stoppedAt) > 0
		}},
		{"horus", func() stateful { return NewHorus(OracleEstimator{}, 1) }, func(s stateful) bool {
			return len(s.(*Horus).predicted) > 0
		}},
	}
	for _, tc := range cases {
		s := tc.fresh()
		w := sim.New(holTrace(), s, sim.Options{Tick: 10, SchedulerEvery: 30})
		for at := int64(30); !tc.ready(s); at += 30 {
			if w.RunUntil(at) {
				t.Fatalf("%s: the run completed before its state held every map", tc.name)
			}
		}
		blob, err := s.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		restored := tc.fresh()
		if err := restored.RestoreState(blob); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		again, err := restored.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("%s: restored state snapshots differently:\n got %s\nwant %s", tc.name, again, blob)
		}
	}
}
