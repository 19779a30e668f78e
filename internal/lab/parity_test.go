package lab

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The event engine's design constraint is bit-identical parity with the
// fixed-tick engine (internal/sim/engine.go). These tests enforce it from
// three angles:
//
//   - compat mode (decision tracing on): the engine wakes at every cadence
//     point, so traced event runs must reproduce the *committed* golden
//     digests byte-for-byte;
//   - fast mode (tracing off, EventAware elision active): end-state parity —
//     every job's float accumulators must match the tick engine to the last
//     bit, across schedulers, cadence configurations and chaos;
//   - snapshot interop: compat-mode snapshots are engine-independent bytes,
//     and a fast-mode event prefix resumes to the tick engine's end state.

// scaleHelios shrinks the Helios spec's jobs and nodes together, which
// preserves the offered load, and keeps as many VCs as can still own two
// nodes each (the largest jobs need 16 GPUs). Small VCs under a month of
// datacenter load are where Tiresias's queues run hundreds deep and PROMOTE
// fires — state the golden world never reaches.
func scaleHelios(scale float64) trace.GenSpec {
	spec := trace.Helios()
	spec.NumJobs = int(float64(spec.NumJobs) * scale)
	spec.Nodes = int(float64(spec.Nodes) * scale)
	if n := spec.Nodes / 2; n < spec.NumVCs {
		spec.NumVCs = n
	}
	return spec
}

// withEngine wraps a scheduler constructor to force an engine choice.
func withEngine(mk func() (sim.Scheduler, sim.Options), k sim.EngineKind) func() (sim.Scheduler, sim.Options) {
	return func() (sim.Scheduler, sim.Options) {
		s, o := mk()
		o.Engine = k
		return s, o
	}
}

// fingerprint captures every per-job field the engines mutate, with float
// accumulators rendered as raw IEEE-754 bits: a single ULP of drift in any
// job's arithmetic replay shows up as a diff, not a rounding coincidence.
func fingerprint(r *sim.Result) string {
	var sb strings.Builder
	for _, j := range r.Jobs {
		fmt.Fprintf(&sb, "%d st=%d fs=%d fin=%d pre=%d rst=%d ne=%d rt=%x ag=%x rem=%x cs=%x cw=%x\n",
			j.ID, j.State, j.FirstStart, j.Finish, j.Preemptions, j.Restarts, j.NextEligible,
			math.Float64bits(j.RunTime), math.Float64bits(j.AttainedGPUT),
			math.Float64bits(j.RemainingWork), math.Float64bits(j.ColdStart),
			math.Float64bits(j.CheckpointedWork))
	}
	return sb.String()
}

// diffFingerprints returns the first few differing lines for a readable
// failure message.
func diffFingerprints(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	var out []string
	for i := 0; i < n && len(out) < 5; i++ {
		if la[i] != lb[i] {
			out = append(out, fmt.Sprintf("  tick:  %s\n  event: %s", la[i], lb[i]))
		}
	}
	if len(la) != len(lb) {
		out = append(out, fmt.Sprintf("  (job counts differ: %d vs %d)", len(la), len(lb)))
	}
	return strings.Join(out, "\n")
}

// TestEventEngineGoldenParity runs every golden scheduler under the event
// engine with decision tracing attached and demands the committed golden
// digest — the exact decision sequence the tick engine produces. This is the
// issue's headline acceptance criterion: all pre-existing digests must be
// byte-identical under the new engine.
func TestEventEngineGoldenParity(t *testing.T) {
	eval, models, est := goldenWorld(t)
	golden := readGoldenDigests(t)

	for _, gs := range goldenSchedulers(models, est) {
		want, ok := golden[gs.name]
		if !ok {
			t.Fatalf("%s: no golden digest line", gs.name)
		}
		d, _, n := runTraced(t, eval, gs.name, withEngine(gs.mk, sim.EngineEvent))
		if d != want {
			t.Errorf("%s: event-engine digest %s does not match golden %s", gs.name, d, want)
		}
		t.Logf("%s: event engine reproduced golden digest %s (%d events)", gs.name, want, n)
	}
}

// TestEventEngineFastParity is the fast-mode (elision-active) sweep: the
// golden set plus Horus (cached noisy predictions — the RNG-position half of
// the EventAware contract), plus configurations the golden worlds do not
// cover: a scheduler cadence coarser than the tick, a cadence that is not a
// multiple of the tick, chaos under a coarse cadence (backoff expiries
// between cadence points), and a Helios-shaped world — many VCs, tens of
// thousands of jobs — at the options BenchmarkHeliosMonth runs the full
// one with.
func TestEventEngineFastParity(t *testing.T) {
	eval, models, _ := goldenWorld(t)
	spec := goldenSpec()

	coarse := func() sim.Options { return sim.Options{Tick: 60, SchedulerEvery: 300} }
	ragged := func() sim.Options { return sim.Options{Tick: 60, SchedulerEvery: 290} }
	// fine reproduces the pending-decision regression: at 1-second ticks with
	// 600-second sampling, sampling wake-ups land between scheduler cadence
	// points, so a Tiresias quantum expiring in that gap must stay pending
	// (filtered against LastSchedulerRun, not Now) or its eviction slips.
	fine := func() sim.Options { return sim.Options{Tick: 1, SchedulerEvery: 60, SampleEvery: 600} }
	chaosOpts := func(base sim.Options) sim.Options {
		cs := chaos.DefaultSpec()
		cs.NodeFailPerDay = 4
		cs.GPUFailPerDay = 0.5
		cs.JobCrashPerDay = 6
		cs.MaxRetries = 3
		cs.BackoffSec = 120
		base.Chaos = &cs
		return base
	}

	hspec := scaleHelios(0.02)
	helios := trace.NewGenerator(hspec).Emit(hspec.NumJobs)
	heliosOpts := func() sim.Options { return sim.Options{Tick: 60, SchedulerEvery: 60, SampleEvery: 600} }

	cases := []struct {
		name string
		tr   *trace.Trace
		mk   func() (sim.Scheduler, sim.Options)
	}{
		{"FIFO", eval, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), SimOpts() }},
		{"SJF", eval, func() (sim.Scheduler, sim.Options) { return sched.NewSJF(), SimOpts() }},
		{"QSSF", eval, func() (sim.Scheduler, sim.Options) { return sched.NewQSSF(sched.OracleEstimator{}), SimOpts() }},
		{"Horus", eval, func() (sim.Scheduler, sim.Options) {
			return sched.NewHorus(sched.OracleEstimator{}, spec.Seed), SimOpts()
		}},
		{"Tiresias", eval, func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), SimOpts() }},
		{"Lucid", eval, func() (sim.Scheduler, sim.Options) {
			return core.New(models.Clone(), core.DefaultConfig()), LucidOpts(spec)
		}},
		{"FIFO-coarse", eval, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), coarse() }},
		{"Tiresias-coarse", eval, func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), coarse() }},
		{"FIFO-ragged", eval, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), ragged() }},
		{"Tiresias-fine", eval, func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), fine() }},
		{"FIFO-chaos", eval, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), chaosOpts(SimOpts()) }},
		{"FIFO-chaos-coarse", eval, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), chaosOpts(coarse()) }},
		{"Tiresias-chaos", eval, func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), chaosOpts(coarse()) }},
		{"Helios-FIFO", helios, func() (sim.Scheduler, sim.Options) { return sched.NewFIFO(), heliosOpts() }},
		{"Helios-Tiresias", helios, func() (sim.Scheduler, sim.Options) { return sched.NewTiresias(), heliosOpts() }},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sT, oT := withEngine(tc.mk, sim.EngineTick)()
			resT := sim.New(tc.tr, sT, oT).Run()
			sE, oE := withEngine(tc.mk, sim.EngineEvent)()
			resE := sim.New(tc.tr, sE, oE).Run()

			fT, fE := fingerprint(resT), fingerprint(resE)
			if fT != fE {
				t.Errorf("per-job end state diverged:\n%s", diffFingerprints(fT, fE))
			}
			if resT.Summary() != resE.Summary() {
				t.Errorf("summaries diverged:\n  tick:  %s\n  event: %s", resT.Summary(), resE.Summary())
			}
			if resT.Requeues != resE.Requeues || resT.JobKills != resE.JobKills ||
				resT.NodeFailures != resE.NodeFailures || resT.GPUFailures != resE.GPUFailures ||
				resT.FailedJobs != resE.FailedJobs {
				t.Errorf("chaos accounting diverged: tick {fail=%d node=%d gpu=%d kill=%d rq=%d} event {fail=%d node=%d gpu=%d kill=%d rq=%d}",
					resT.FailedJobs, resT.NodeFailures, resT.GPUFailures, resT.JobKills, resT.Requeues,
					resE.FailedJobs, resE.NodeFailures, resE.GPUFailures, resE.JobKills, resE.Requeues)
			}
		})
	}
}

// TestEventEngineSnapshotParity covers the durable-state interactions:
//
//  1. compat mode: a snapshot taken mid-run is a property of the simulated
//     state, not the engine that produced it — tick and event prefixes must
//     serialize to identical bytes, and a tick-engine prefix must resume
//     under the event engine (and vice versa) to the committed golden digest;
//  2. fast mode: an event-engine prefix snapshot resumed under the event
//     engine must land on the tick engine's bit-exact end state, proving the
//     prediction heap and waiting set rebuild correctly from a snapshot;
//  3. fork: a prefix continued by a different scheduler ends the same under
//     both engines.
func TestEventEngineSnapshotParity(t *testing.T) {
	eval, models, est := goldenWorld(t)
	golden := readGoldenDigests(t)
	const cut = 86400

	// --- compat mode, FIFO-chaos (the richest state: down nodes, backoff).
	var mkChaos func() (sim.Scheduler, sim.Options)
	for _, gs := range goldenSchedulers(models, est) {
		if gs.name == "FIFO-chaos" {
			mkChaos = gs.mk
		}
	}
	snapAt := func(mk func() (sim.Scheduler, sim.Options)) []byte {
		s, opts := mk()
		rec := dtrace.New()
		rec.SetKeep(0)
		opts.DecisionTrace = rec
		sm := sim.New(eval, s, opts)
		if done := sm.RunUntil(cut); done {
			t.Fatal("run completed before the cut")
		}
		var buf bytes.Buffer
		if err := sm.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	tickBytes := snapAt(withEngine(mkChaos, sim.EngineTick))
	eventBytes := snapAt(withEngine(mkChaos, sim.EngineEvent))
	if !bytes.Equal(tickBytes, eventBytes) {
		t.Error("compat-mode snapshots differ across engines: the event engine's mid-run state drifted")
	}

	// Cross-engine resume: tick prefix → event finish, against the golden
	// digest of an uninterrupted run.
	s2, opts2 := withEngine(mkChaos, sim.EngineEvent)()
	rec2 := dtrace.New()
	rec2.SetKeep(0)
	opts2.DecisionTrace = rec2
	resumed, err := sim.Resume(eval, s2, opts2, bytes.NewReader(tickBytes))
	if err != nil {
		t.Fatalf("resume tick snapshot under event engine: %v", err)
	}
	resumed.Run()
	if got, want := rec2.Digest(), golden["FIFO-chaos"]; got != want {
		t.Errorf("tick prefix + event finish digest %s, golden is %s", got, want)
	}

	// --- fast mode: event prefix → snapshot → event finish vs tick full run.
	mkFast := func() (sim.Scheduler, sim.Options) {
		opts := SimOpts()
		cs := chaos.DefaultSpec()
		cs.NodeFailPerDay = 4
		cs.JobCrashPerDay = 6
		cs.MaxRetries = 3
		cs.BackoffSec = 120
		opts.Chaos = &cs
		return sched.NewFIFO(), opts
	}
	sT, oT := withEngine(mkFast, sim.EngineTick)()
	refFP := fingerprint(sim.New(eval, sT, oT).Run())

	sP, oP := withEngine(mkFast, sim.EngineEvent)()
	pre := sim.New(eval, sP, oP)
	if done := pre.RunUntil(cut); done {
		t.Fatal("fast run completed before the cut")
	}
	var buf bytes.Buffer
	if err := pre.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sR, oR := withEngine(mkFast, sim.EngineEvent)()
	res2, err := sim.Resume(eval, sR, oR, &buf)
	if err != nil {
		t.Fatalf("fast-mode resume: %v", err)
	}
	got := fingerprint(res2.Run())
	if got != refFP {
		t.Errorf("fast event prefix+resume end state differs from tick run:\n%s", diffFingerprints(refFP, got))
	}

	// --- fork: a FIFO prefix continued by schedulers that did not run it,
	// cut at an hour when FIFO's head of line is blocked. What FIFO left
	// behind is no fixed point of theirs (SJF starts short jobs behind the
	// blocked head), so their first cadence round acts with nothing else
	// changed and the event engine must not elide it.
	const forkCut = 44 * 3600
	for _, alt := range []func() sim.Scheduler{
		func() sim.Scheduler { return sched.NewSJF() },
		func() sim.Scheduler { return sched.NewTiresias() },
	} {
		var fps [2]string
		for i, k := range []sim.EngineKind{sim.EngineTick, sim.EngineEvent} {
			opts := SimOpts()
			opts.Engine = k
			base := sim.New(eval, sched.NewFIFO(), opts)
			if done := base.RunUntil(forkCut); done {
				t.Fatal("prefix completed before the cut")
			}
			fk, err := base.Fork(alt(), opts)
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			fps[i] = fingerprint(fk.Run())
		}
		if fps[0] != fps[1] {
			t.Errorf("FIFO prefix forked into %s ends differently under the two engines:\n%s",
				alt().Name(), diffFingerprints(fps[0], fps[1]))
		}
	}
}
