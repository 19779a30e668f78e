package lab

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTracedE is runTraced without the *testing.T: safe to call from worker
// goroutines (t.Fatalf must not be called off the test goroutine).
func runTracedE(eval *trace.Trace, name string,
	mk func() (sim.Scheduler, sim.Options)) (digest, summary string, err error) {
	s, opts := mk()
	rec := dtrace.New()
	rec.SetKeep(0)
	opts.DecisionTrace = rec
	opts.Invariants = sim.NewInvariantChecker(true)
	res := sim.New(eval, s, opts).Run()
	if res.Violations > 0 {
		return "", "", fmt.Errorf("%s: %d invariant violations: %v", name, res.Violations, res.ViolationSamples)
	}
	if rec.Summary().Total == 0 {
		return "", "", fmt.Errorf("%s: empty decision trace", name)
	}
	return rec.Digest(), res.Summary(), nil
}

// TestParallelMatchesSerial is the harness's core equivalence claim: the
// golden scheduler set produces byte-identical decision-trace digests and
// metric summaries whether the runs execute one at a time or all at once
// on the worker pool. Run under -race in CI, it also shakes out data races
// between concurrent simulations (shared models, estimator caches, the
// pair-speed memo table).
func TestParallelMatchesSerial(t *testing.T) {
	eval, models, est := goldenWorld(t)
	set := goldenSchedulers(models, est)

	type out struct {
		digest, summary string
		err             error
	}
	sweep := func(workers int) []out {
		SetParallelism(workers)
		defer SetParallelism(0)
		res := make([]out, len(set))
		ForEachPar(len(set), func(i int) {
			d, s, err := runTracedE(eval, set[i].name, set[i].mk)
			res[i] = out{d, s, err}
		})
		return res
	}

	serial := sweep(1)
	parallel := sweep(len(set))
	for i, gs := range set {
		if serial[i].err != nil {
			t.Fatalf("serial %s: %v", gs.name, serial[i].err)
		}
		if parallel[i].err != nil {
			t.Fatalf("parallel %s: %v", gs.name, parallel[i].err)
		}
		if serial[i].digest != parallel[i].digest {
			t.Errorf("%s: digest differs serial vs parallel: %s vs %s",
				gs.name, serial[i].digest, parallel[i].digest)
		}
		if serial[i].summary != parallel[i].summary {
			t.Errorf("%s: metrics differ serial vs parallel:\n  %s\n  %s",
				gs.name, serial[i].summary, parallel[i].summary)
		}
	}
}

// TestRunManySerialParallelIdentical drives World.RunMany, the pool path
// the fairness and micro experiments run through, over the full
// six-scheduler Schedulers() set (Horus and GBDT-backed QSSF included),
// serially and in parallel over one world, and demands identical metrics.
func TestRunManySerialParallelIdentical(t *testing.T) {
	eval, models, _ := goldenWorld(t)
	w := &World{Spec: goldenSpec(), Eval: eval, models: fixedModels(models),
		Estimator: sched.OracleEstimator{}}

	SetParallelism(1)
	serial := w.RunMany(w.Schedulers())
	SetParallelism(len(SchedulerOrder))
	parallel := w.RunMany(w.Schedulers())
	SetParallelism(0)

	if len(serial) != len(SchedulerOrder) || len(parallel) != len(SchedulerOrder) {
		t.Fatalf("result sets incomplete: %d and %d of %d",
			len(serial), len(parallel), len(SchedulerOrder))
	}
	for i, name := range SchedulerOrder {
		s, p := serial[i], parallel[i]
		if s == nil || p == nil {
			t.Fatalf("%s: missing result", name)
		}
		if s.Summary() != p.Summary() {
			t.Errorf("%s: metrics differ serial vs parallel:\n  %s\n  %s",
				name, s.Summary(), p.Summary())
		}
	}
}

// TestWorldCacheCoherence checks that GetWorld memoizes (same pointer back,
// hit counted) and that concurrent first requests for one key share a
// single build.
func TestWorldCacheCoherence(t *testing.T) {
	spec := goldenSpec()
	spec.NumJobs = 500 // floor; keeps the build cheap
	ResetWorldCache()

	b0, _, sec0 := WorldCacheStats()
	const callers = 4
	worlds := make([]*World, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worlds[i], errs[i] = GetWorld(spec, 0.5)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if worlds[i] != worlds[0] {
			t.Fatal("GetWorld returned distinct worlds for one key")
		}
	}
	b1, _, sec1 := WorldCacheStats()
	if b1 != b0+1 {
		t.Fatalf("concurrent GetWorld built %d worlds, want 1", b1-b0)
	}
	if sec1 <= sec0 {
		t.Fatalf("build seconds %v → %v: the build was not timed", sec0, sec1)
	}

	again, err := GetWorld(spec, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if again != worlds[0] {
		t.Fatal("repeat GetWorld missed the cache")
	}
	if other, err := GetWorld(spec, 0.7); err != nil {
		t.Fatal(err)
	} else if other == worlds[0] {
		t.Fatal("distinct scale collided in the cache")
	}
	ResetWorldCache()
}

// ResetWorldCache drops every cached world and memoized Table 4 sweep
// (benchmarks use it to measure cold builds; long-lived processes can use
// it to bound memory).
func ResetWorldCache() {
	worldCache.Range(func(k, _ any) bool {
		worldCache.Delete(k)
		return true
	})
	sweepCache.Range(func(k, _ any) bool {
		sweepCache.Delete(k)
		return true
	})
}
