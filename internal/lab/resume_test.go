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
// short refit interval the estimator is retrained mid-run, so the snapshot
// must embed the refit model bundle. Prefix+resume must still equal the
// uninterrupted run exactly.
func TestSnapshotResumeWithModelRefit(t *testing.T) {
	_, models, _ := goldenWorld(t)
	spec := goldenSpec()
	mk := func() (sim.Scheduler, sim.Options) {
		cfg := core.DefaultConfig()
		cfg.UpdateIntervalSec = 43200 // 12 h: several refits inside the 3-day trace
		return core.New(models.Clone(), cfg), LucidOpts(spec)
	}

	refSim, refRec := tracedRun(mk)
	refRes := refSim.Run()

	preLucid, preOpts := mk()
	preRec := dtrace.New()
	preRec.SetKeep(0)
	preOpts.DecisionTrace = preRec
	preOpts.Invariants = sim.NewInvariantChecker(true)
	preSim := sim.New(goldenOnce.eval, preLucid, preOpts)
	const cut = 2 * 86400 // past at least one refit with ≥200 finished jobs
	if done := preSim.RunUntil(cut); done {
		t.Fatalf("run completed before the cut at %d", cut)
	}
	if !preLucid.(*core.Lucid).ModelsRefit() {
		t.Fatal("test setup: no Update Engine refit happened before the cut — the bundle path is not exercised")
	}
	var buf bytes.Buffer
	if err := preSim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	s2, opts2 := mk()
	rec2 := dtrace.New()
	rec2.SetKeep(0)
	opts2.DecisionTrace = rec2
	opts2.Invariants = sim.NewInvariantChecker(true)
	resumed, err := sim.Resume(goldenOnce.eval, s2, opts2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	res2 := resumed.Run()
	if got, want := rec2.Digest(), refRec.Digest(); got != want {
		t.Errorf("resumed digest %s differs from uninterrupted %s", got, want)
	}
	if res2.Summary() != refRes.Summary() {
		t.Errorf("resumed metrics differ:\n  %s\n  %s", res2.Summary(), refRes.Summary())
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
