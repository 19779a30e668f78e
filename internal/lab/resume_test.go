package lab

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// readGoldenDigests parses testdata/golden_digests.txt into name → digest.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 {
			out[fields[0]] = fields[1]
		}
	}
	return out
}

// tracedRun builds one traced, invariant-checked simulation.
func tracedRun(mk func() (sim.Scheduler, sim.Options)) (*sim.Sim, *dtrace.Recorder) {
	s, opts := mk()
	rec := dtrace.New()
	rec.SetKeep(0)
	opts.DecisionTrace = rec
	opts.Invariants = sim.NewInvariantChecker(true)
	return sim.New(goldenOnce.eval, s, opts), rec
}

// TestSnapshotResumeMatchesGolden is the tentpole's bit-exactness proof:
// for FIFO (stateless), Lucid (model caches, binder mode, profiler state)
// and FIFO-chaos (down-node clocks, retry counters), running N ticks,
// snapshotting, restoring into fresh scheduler+recorder instances and
// running to completion must reproduce the *committed* golden trace digest
// — the digest of an uninterrupted run — along with identical aggregate
// metrics. It also locks in that Snapshot is canonical (same state → same
// bytes) and read-only (the snapshotted run continues to the same digest).
func TestSnapshotResumeMatchesGolden(t *testing.T) {
	eval, models, est := goldenWorld(t)
	_ = eval
	golden := readGoldenDigests(t)
	const cut = 86400 // snapshot one simulated day in: queues, packs and faults in flight

	for _, gs := range goldenSchedulers(models, est) {
		switch gs.name {
		case "FIFO", "Lucid", "FIFO-chaos":
		default:
			continue
		}
		want, ok := golden[gs.name]
		if !ok {
			t.Fatalf("%s: no golden digest line", gs.name)
		}

		// Uninterrupted reference run (for the metric summary).
		refSim, refRec := tracedRun(gs.mk)
		refRes := refSim.Run()
		if got := refRec.Digest(); got != want {
			t.Fatalf("%s: uninterrupted digest %s does not match golden %s", gs.name, got, want)
		}

		// Prefix run to the cut point, snapshot twice (canonical-bytes check).
		preSim, preRec := tracedRun(gs.mk)
		if done := preSim.RunUntil(cut); done {
			t.Fatalf("%s: run completed before the cut at %d", gs.name, cut)
		}
		var snap1, snap2 bytes.Buffer
		if err := preSim.Snapshot(&snap1); err != nil {
			t.Fatalf("%s: snapshot: %v", gs.name, err)
		}
		if err := preSim.Snapshot(&snap2); err != nil {
			t.Fatalf("%s: second snapshot: %v", gs.name, err)
		}
		if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
			t.Errorf("%s: snapshotting the same state twice produced different bytes", gs.name)
		}

		// Restore into a completely fresh scheduler + recorder and finish.
		s2, opts2 := gs.mk()
		rec2 := dtrace.New()
		rec2.SetKeep(0)
		opts2.DecisionTrace = rec2
		opts2.Invariants = sim.NewInvariantChecker(true)
		resumed, err := sim.Resume(goldenOnce.eval, s2, opts2, bytes.NewReader(snap1.Bytes()))
		if err != nil {
			t.Fatalf("%s: resume: %v", gs.name, err)
		}
		res2 := resumed.Run()
		if got := rec2.Digest(); got != want {
			t.Errorf("%s: run %d ticks → snapshot → restore → run produced digest %s, golden is %s",
				gs.name, cut, got, want)
		}
		if res2.Summary() != refRes.Summary() {
			t.Errorf("%s: resumed metrics differ from uninterrupted run:\n  %s\n  %s",
				gs.name, res2.Summary(), refRes.Summary())
		}

		// Snapshot must be read-only: the snapshotted run, continued in
		// place, reaches the identical golden digest.
		preSim.Run()
		if got := preRec.Digest(); got != want {
			t.Errorf("%s: continuing after Snapshot produced digest %s, golden is %s",
				gs.name, got, want)
		}
		t.Logf("%s: prefix+resume digest %s matches golden", gs.name, want)
	}
}

// TestSnapshotResumeWithModelRefit covers the Update Engine path: with a
// 12 h refit interval the estimator is refit mid-run, so the snapshot must
// embed the refit model bundle, with the number of rows behind its bin
// edges. Prefix+resume must still equal the uninterrupted run exactly, on
// both of Update's branches:
//   - in the golden world, the cut lands between two warm refits, so the
//     resumed run fine-tunes the restored model;
//   - over a history two thirds the golden one's, the cut comes before the
//     refit whose history has doubled since the edges were taken, so the
//     resumed run takes the full-fit fallback.
func TestSnapshotResumeWithModelRefit(t *testing.T) {
	_, models, _ := goldenWorld(t)
	golden := readGoldenDigests(t)
	spec := goldenSpec()
	g := trace.NewGenerator(spec)
	shortModels, err := core.TrainModels(g.Emit(400), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shortEval := g.Emit(450)

	for _, c := range []struct {
		name   string
		eval   *trace.Trace
		models *core.Models
		cut    int64
		want   string // the uninterrupted digest, where a golden line pins it
		// resumed reports whether the fits after the cut (warm, full) are the
		// branch this case is about.
		resumed func(warm, full int) bool
	}{
		{"between warm refits", goldenOnce.eval, models, 2*86400 + 21600, golden["Lucid-refit"],
			func(warm, full int) bool { return warm > 0 && full == 0 }},
		{"across the doubling fallback", shortEval, shortModels, 2*86400 + 43200, "",
			func(warm, full int) bool { return full > 0 }},
	} {
		// run simulates c.eval under a fresh Lucid; the returned models are
		// the ones it refits (a restore replaces their estimator).
		run := func() (*sim.Sim, *core.Models, *core.Lucid, *dtrace.Recorder) {
			m := c.models.Clone()
			l := core.New(m, refitConfig())
			opts := LucidOpts(spec)
			rec := dtrace.New()
			rec.SetKeep(0)
			opts.DecisionTrace = rec
			opts.Invariants = sim.NewInvariantChecker(true)
			return sim.New(c.eval, l, opts), m, l, rec
		}

		refSim, _, _, refRec := run()
		refRes := refSim.Run()
		if c.want != "" && refRec.Digest() != c.want {
			t.Fatalf("%s: uninterrupted digest %s does not match golden %s", c.name, refRec.Digest(), c.want)
		}

		preSim, preModels, preLucid, _ := run()
		if done := preSim.RunUntil(c.cut); done {
			t.Fatalf("%s: run completed before the cut at %d", c.name, c.cut)
		}
		// The prefix has fit warm at least once, and in full only to train.
		if warm, full := preModels.Estimator.Fits(); !preLucid.ModelsRefit() || warm == 0 || full != 1 {
			t.Fatalf("%s: before the cut: refit %v, %d warm and %d full fits; want a warm refit and only the training fit full",
				c.name, preLucid.ModelsRefit(), warm, full)
		}
		var buf bytes.Buffer
		if err := preSim.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}

		_, m2, l2, rec2 := run()
		opts2 := LucidOpts(spec)
		opts2.DecisionTrace = rec2
		opts2.Invariants = sim.NewInvariantChecker(true)
		resumed, err := sim.Resume(c.eval, l2, opts2, &buf)
		if err != nil {
			t.Fatal(err)
		}
		res2 := resumed.Run()
		if warm, full := m2.Estimator.Fits(); !c.resumed(warm, full) {
			t.Fatalf("%s: after the cut the resumed run fit %d times warm and %d full", c.name, warm, full)
		}
		if got, want := rec2.Digest(), refRec.Digest(); got != want {
			t.Errorf("%s: resumed digest %s differs from uninterrupted %s", c.name, got, want)
		}
		if res2.Summary() != refRes.Summary() {
			t.Errorf("%s: resumed metrics differ:\n  %s\n  %s", c.name, res2.Summary(), refRes.Summary())
		}
	}
}

// TestForkWhatIf exercises the time-travel fork: run a FIFO prefix, fork
// the world into SJF mid-flight, and finish both runs. The fork gets fresh
// policy state over the restored world; both must complete cleanly, and the
// original must still match its golden digest.
func TestForkWhatIf(t *testing.T) {
	_, models, est := goldenWorld(t)
	golden := readGoldenDigests(t)

	base, baseRec := tracedRun(goldenSchedulers(models, est)[0].mk) // FIFO
	if done := base.RunUntil(86400); done {
		t.Fatal("run completed before the fork point")
	}

	opts := SimOpts()
	rec := dtrace.New()
	rec.SetKeep(0)
	opts.DecisionTrace = rec
	opts.Invariants = sim.NewInvariantChecker(true)
	fork, err := base.Fork(sched.NewSJF(), opts)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	forkRes := fork.Run()
	if forkRes.Violations > 0 {
		t.Fatalf("forked SJF run: %d invariant violations: %v", forkRes.Violations, forkRes.ViolationSamples)
	}
	if rec.Summary().Total == 0 {
		t.Fatal("forked run recorded no decisions")
	}

	base.Run()
	if got, want := baseRec.Digest(), golden["FIFO"]; got != want {
		t.Errorf("original run after fork produced digest %s, golden is %s", got, want)
	}
}
