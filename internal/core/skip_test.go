package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtrace"
	"repro/internal/sim"
)

// TestSkippedRetriesChangeNothing holds the walk that skips a job whose VC
// has not changed since it failed to the walk that retries every job every
// round (retryAll): the same world and scheduler state, serialized, at a
// mid-run cut and at the end, and the same result, job for job. Once more
// with a decision trace on both walks (the skipping one told to skip in
// traced rounds too): the same engine transitions at the same instants.
// Random worlds, in a burst so queues stay long, × every input of a failed
// attempt the stamp must answer for: the Binder's pack mode (dynamic, and
// flapping), its rules (naive packing, sharing off), the estimates (ablated,
// a refit every day re-keying the queue, aging), the profiler (none, so
// every job is queued on arrival), and faults that crash and repair nodes and kill jobs, once more
// resumed on fresh instances mid-run.
func TestSkippedRetriesChangeNothing(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func(*Config)
		noProf bool
		flap   bool // the pack mode flips every ten minutes
		chaos  bool
		resume bool
	}{
		{name: "default"},
		{name: "flapping-pack-mode", flap: true},
		{name: "naive-binder", cfg: func(c *Config) { c.DisableBinder = true }},
		{name: "no-sharing", cfg: func(c *Config) { c.DisableSharing = true }},
		{name: "no-estimator", cfg: func(c *Config) { c.DisableEstimator = true }},
		{name: "refit", cfg: func(c *Config) { c.UpdateIntervalSec = 86400 }},
		{name: "aging", cfg: func(c *Config) { c.FairnessAgingSec = 1 }},
		{name: "no-profiler", noProf: true},
		{name: "chaos", chaos: true},
		{name: "chaos-resumed", chaos: true, resume: true},
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
			world := &burst
			cfg := DefaultConfig()
			cfg.UpdateIntervalSec = 0
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			opts := func(rec *dtrace.Recorder) sim.Options {
				o := sim.Options{Tick: 60, SchedulerEvery: 300, ProfilerNodes: 1, DecisionTrace: rec,
					Invariants: sim.NewInvariantChecker(true)}
				if tc.noProf {
					o.ProfilerNodes = 0
				}
				if tc.chaos {
					cs := chaos.DefaultSpec()
					cs.NodeFailPerDay, cs.GPUFailPerDay, cs.JobCrashPerDay = 4, 0.5, 6
					cs.MaxRetries, cs.BackoffSec = 3, 120
					o.Chaos = &cs
				}
				return o
			}
			// run builds one walk; traced ones record on a fresh recorder.
			run := func(retryAll, traced bool) (*Lucid, *sim.Sim, *dtrace.Recorder) {
				var rec *dtrace.Recorder
				if traced {
					rec = dtrace.New()
				}
				l := New(models.Clone(), cfg)
				l.retryAll, l.traceSkips = retryAll, traced
				if tc.flap {
					l.roundHook = func(env *sim.Env, _ []keyedJob) {
						l.binder.SetMode(PackMode(env.Now() / 600 % 2)) // Default, Apathetic
					}
				}
				if !tc.resume {
					return l, sim.New(world, l, opts(rec)), rec
				}
				pre := sim.New(world, New(models.Clone(), cfg), opts(nil))
				if done := pre.RunUntil(12 * 3600); done {
					t.Fatalf("seed %d %s: run completed before the resume point", seed, tc.name)
				}
				s, err := pre.Fork(l, opts(rec))
				if err != nil {
					t.Fatal(err)
				}
				return l, s, rec
			}
			checkSkipped := func(oracle, l *Lucid, walk string) {
				if oracle.skipped != 0 || l.skipped == 0 {
					t.Fatalf("seed %d %s: %d attempts skipped %s, %d by the walk that retries every job", seed, tc.name, l.skipped, walk, oracle.skipped)
				}
			}

			oracle, want, _ := run(true, false)
			l, got, _ := run(false, false)
			const cut = 18 * 3600
			want.RunUntil(cut)
			got.RunUntil(cut)
			if !bytes.Equal(snapshotBytes(t, want), snapshotBytes(t, got)) {
				t.Fatalf("seed %d %s: at t=%d the state differs from the walk that retries every job", seed, tc.name, cut)
			}
			wantRes, gotRes := want.Run(), got.Run()
			if gotRes.Unfinished != 0 {
				t.Fatalf("seed %d %s: %d jobs unfinished", seed, tc.name, gotRes.Unfinished)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("seed %d %s: the result differs from the walk that retries every job", seed, tc.name)
			}
			if !bytes.Equal(snapshotBytes(t, want), snapshotBytes(t, got)) {
				t.Fatalf("seed %d %s: the final state differs from the walk that retries every job", seed, tc.name)
			}
			checkSkipped(oracle, l, "untraced")
			if tc.name == "refit" && !l.ModelsRefit() {
				t.Fatalf("seed %d refit: the Update Engine never refit", seed)
			}

			oracle, want, wantRec := run(true, true)
			l, got, gotRec := run(false, true)
			want.Run()
			got.Run()
			wantEv, gotEv := transitions(wantRec), transitions(gotRec)
			if len(gotEv) == 0 {
				t.Fatalf("seed %d %s: no engine transition traced", seed, tc.name)
			}
			for i := range min(len(wantEv), len(gotEv)) {
				if wantEv[i] != gotEv[i] {
					t.Fatalf("seed %d %s: engine transition %d is %+v, the walk that retries every job has %+v",
						seed, tc.name, i, gotEv[i], wantEv[i])
				}
			}
			if len(wantEv) != len(gotEv) {
				t.Fatalf("seed %d %s: %d engine transitions traced, the walk that retries every job has %d",
					seed, tc.name, len(gotEv), len(wantEv))
			}
			checkSkipped(oracle, l, "traced")
			t.Logf("seed %d %s: %d attempts skipped", seed, tc.name, l.skipped)
		}
	}
}

// transition is one engine state change of a decision trace, without the
// policy's reasoning.
type transition struct {
	Tick   int64
	Job    int
	Action dtrace.Action
	GPUs   int
	VC     string
}

// transitions lists the engine state changes a trace recorded, in order. It
// leaves out place-fail and pack-reject: they record attempts, and skipping
// an attempt that would fail is the point.
func transitions(rec *dtrace.Recorder) []transition {
	var out []transition
	for _, e := range rec.Events() {
		switch e.Action {
		case dtrace.ActPlace, dtrace.ActPack, dtrace.ActPlaceElastic, dtrace.ActPreempt,
			dtrace.ActProfileStart, dtrace.ActProfileStop, dtrace.ActRetire, dtrace.ActRequeue, dtrace.ActExhaust:
			out = append(out, transition{e.Tick, e.Job, e.Action, e.GPUs, e.VC})
		}
	}
	return out
}

// TestRekeyDropsStamps: a refit drops every failure stamp. It can lengthen a
// running job's estimate past the Binder's minRemainSec, which makes a
// partner that was ending too soon viable again with no change to its VC;
// TestSkippedRetriesChangeNothing's worlds never reach that case, so the rule
// is pinned here.
func TestRekeyDropsStamps(t *testing.T) {
	eval, models := queueWorld(t, 1)
	cfg := DefaultConfig()
	cfg.UpdateIntervalSec = 0
	l := New(models.Clone(), cfg)
	s := sim.New(eval, l, sim.Options{Tick: 60, SchedulerEvery: 300, ProfilerNodes: 1})
	stamped := func() int {
		n := 0
		for _, q := range l.queue {
			if q.failedAt != 0 {
				n++
			}
		}
		return n
	}
	for tick := 0; tick < 3*86400/60 && stamped() < 2; tick++ { // one StepOnce is one 60 s tick
		s.StepOnce()
	}
	if stamped() < 2 {
		t.Fatal("no round left two stamped jobs")
	}
	l.rekey()
	if n := stamped(); n != 0 {
		t.Fatalf("%d jobs keep their stamps across a re-key", n)
	}
}

func snapshotBytes(t *testing.T, s *sim.Sim) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
