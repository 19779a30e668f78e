package lab

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sequentialWorld is the oracle for BuildWorld's lazy fits: the same steps
// one after another and up front — emit the history month, emit the
// evaluation month, train Lucid's models, fit the GBDT estimator — over the
// scaled spec and month size BuildWorld chose.
func sequentialWorld(t *testing.T, spec trace.GenSpec, n int) *World {
	t.Helper()
	g := trace.NewGenerator(spec)
	hist := g.Emit(n)
	eval := g.Emit(n)
	models, err := core.TrainModels(hist, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewGBDTEstimator(hist)
	if err != nil {
		t.Fatal(err)
	}
	return &World{Spec: spec, History: hist, Eval: eval, models: fixedModels(models), Estimator: est}
}

// fixedModels is a World.models over models trained already.
func fixedModels(m *core.Models) func() *core.Models {
	return func() *core.Models { return m }
}

func saveModels(t *testing.T, m *core.Models) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lazyOf returns the world's unexported lazy estimator.
func lazyOf(t *testing.T, w *World) *lazyGBDT {
	t.Helper()
	l, ok := w.Estimator.(*lazyGBDT)
	if !ok {
		t.Fatalf("World.Estimator is %T, want *lazyGBDT", w.Estimator)
	}
	return l
}

// TestBuildWorldMatchesSequential holds the build and its lazy fits to the
// sequential oracle: the same months, the same model bytes, the same GBDT
// estimates.
func TestBuildWorldMatchesSequential(t *testing.T) {
	cases := []struct {
		spec  trace.GenSpec
		scale float64
	}{
		{trace.Venus(), tinyScale},
		{trace.Saturn(), 0.01},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			w, err := BuildWorld(c.spec, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			want := sequentialWorld(t, w.Spec, len(w.History.Jobs))
			if got, exp := sim.TraceFingerprint(w.History), sim.TraceFingerprint(want.History); got != exp {
				t.Errorf("history fingerprint %016x, sequential build %016x", got, exp)
			}
			if got, exp := sim.TraceFingerprint(w.Eval), sim.TraceFingerprint(want.Eval); got != exp {
				t.Errorf("evaluation fingerprint %016x, sequential build %016x", got, exp)
			}
			if !bytes.Equal(saveModels(t, w.Models()), saveModels(t, want.Models())) {
				t.Error("Models.Save bytes differ from the sequential build's")
			}
			for _, j := range w.Eval.Jobs {
				if got, exp := w.Estimator.EstimateSec(j), want.Estimator.EstimateSec(j); got != exp {
					t.Fatalf("job %d: GBDT estimate %v, sequential build %v", j.ID, got, exp)
				}
			}
		})
	}
}

// TestBuildWorldRefusesScale holds BuildWorld to the (0, 1] it documents: a
// scale outside it is an error, not a silent full-size month.
func TestBuildWorldRefusesScale(t *testing.T) {
	for _, scale := range []float64{0, -0.5, 1.5, math.NaN()} {
		if w, err := BuildWorld(trace.Venus(), scale); err == nil {
			t.Errorf("scale %v: built a %d-job world, want an error", scale, len(w.Eval.Jobs))
		}
	}
}

// TestLazyGBDT checks that the build leaves the GBDT estimator unfit, that a
// Lucid-only run does not fit it, and that once fit it answers exactly as an
// estimator fit eagerly on the same history.
func TestLazyGBDT(t *testing.T) {
	w, err := BuildWorld(trace.Venus(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	lazy := lazyOf(t, w)
	if lazy.est != nil {
		t.Fatal("BuildWorld fit the GBDT estimator")
	}
	if res := w.Run(NamedRun{"Lucid", w.NewLucid(core.DefaultConfig()), LucidOpts(w.Spec)}); len(res.Jobs) == 0 {
		t.Fatal("Lucid run returned no jobs")
	}
	if lazy.est != nil {
		t.Fatal("a Lucid-only run fit the GBDT estimator")
	}

	eager, err := NewGBDTEstimator(w.History)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Eval.Jobs {
		if got, want := w.Estimator.EstimateSec(j), eager.EstimateSec(j); got != want {
			t.Fatalf("job %d: lazy estimate %v, eager %v", j.ID, got, want)
		}
	}
	if lazy.est == nil {
		t.Fatal("EstimateSec did not fit the estimator")
	}
}

// TestLazyGBDTConcurrentFirstUse runs QSSF and Horus side by side on a fresh
// world, so both ask for their first estimate together, and demands the
// metrics of a serial run over another fresh world. Run under -race in CI.
func TestLazyGBDTConcurrentFirstUse(t *testing.T) {
	sweep := func(workers int) []*sim.Result {
		w, err := BuildWorld(trace.Venus(), tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		var runs []NamedRun
		for _, nr := range w.Schedulers() {
			if nr.Name == "QSSF" || nr.Name == "Horus" {
				runs = append(runs, nr)
			}
		}
		SetParallelism(workers)
		defer SetParallelism(0)
		res := w.RunMany(runs)
		if lazyOf(t, w).est == nil {
			t.Fatal("QSSF and Horus ran without fitting the estimator")
		}
		return res
	}
	serial := sweep(1)
	parallel := sweep(2)
	for i := range serial {
		if s, p := serial[i].Summary(), parallel[i].Summary(); s != p {
			t.Errorf("run %d: metrics differ serial vs parallel:\n  %s\n  %s", i, s, p)
		}
	}
}

// modelFitCount is ModelFitStats' count of lazy model fits.
func modelFitCount() int64 {
	n, _ := ModelFitStats()
	return n
}

// TestLazyModels checks that the build, Schedulers() and a run of every
// baseline leave Lucid's models unfit, that the first Lucid run fits them
// once, and that they are then the bytes of an eager fit on the same history.
func TestLazyModels(t *testing.T) {
	fits := modelFitCount()
	w, err := BuildWorld(trace.Venus(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var lucid NamedRun
	for _, nr := range w.Schedulers() {
		if nr.Name == "Lucid" {
			lucid = nr
			continue
		}
		if res := w.Run(nr); len(res.Jobs) == 0 {
			t.Fatalf("%s run returned no jobs", nr.Name)
		}
	}
	if n := modelFitCount() - fits; n != 0 {
		t.Fatalf("the build, Schedulers() and the baseline runs fit Lucid's models %d times", n)
	}
	if done := sim.New(w.Eval, lucid.Sched, lucid.Opts).RunUntil(lucid.Opts.Tick); done {
		t.Fatal("Lucid run completed in one round")
	}
	if n := modelFitCount() - fits; n != 1 {
		t.Fatalf("Lucid's first round fit its models %d times, want 1", n)
	}
	eager, err := core.TrainModels(w.History, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveModels(t, w.Models()), saveModels(t, eager)) {
		t.Error("Models.Save bytes of the lazy fit differ from an eager fit's")
	}
	w.Run(NamedRun{"Lucid", w.NewLucid(core.DefaultConfig()), LucidOpts(w.Spec)})
	if n := modelFitCount() - fits; n != 1 {
		t.Fatalf("a second Lucid run fit the models again: %d fits", n)
	}
}

// TestLazyModelsConcurrentFirstUse runs two Lucids side by side on a fresh
// world, so both ask for the models at their first round together, and
// demands the metrics of a serial run over another fresh world, and one fit
// per world. Run under -race in CI.
func TestLazyModelsConcurrentFirstUse(t *testing.T) {
	sweep := func(workers int) []*sim.Result {
		w, err := BuildWorld(trace.Venus(), tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		static := core.DefaultConfig()
		static.UpdateIntervalSec = 0
		runs := []NamedRun{
			{"Lucid", w.NewLucid(core.DefaultConfig()), LucidOpts(w.Spec)},
			{"Lucid static", w.NewLucid(static), LucidOpts(w.Spec)},
		}
		SetParallelism(workers)
		defer SetParallelism(0)
		fits := modelFitCount()
		res := w.RunMany(runs)
		if n := modelFitCount() - fits; n != 1 {
			t.Fatalf("parallelism %d: two Lucids over one world fit its models %d times, want 1", workers, n)
		}
		return res
	}
	serial := sweep(1)
	parallel := sweep(2)
	for i := range serial {
		if s, p := serial[i].Summary(), parallel[i].Summary(); s != p {
			t.Errorf("run %d: metrics differ serial vs parallel:\n  %s\n  %s", i, s, p)
		}
	}
}

// TestLazyModelsResume: a Lucid from a fresh world's Schedulers() whose first
// call is RestoreState — lucidsim -resume — takes its models there, and
// resumes to the uninterrupted run's result.
func TestLazyModelsResume(t *testing.T) {
	const cut = 86400
	lucidOf := func() (*World, NamedRun) {
		w, err := BuildWorld(trace.Venus(), tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, nr := range w.Schedulers() {
			if nr.Name == "Lucid" {
				return w, nr
			}
		}
		t.Fatal("Schedulers() has no Lucid")
		return nil, NamedRun{}
	}

	w, nr := lucidOf()
	want := w.Run(nr).Summary()

	w, nr = lucidOf()
	pre := sim.New(w.Eval, nr.Sched, nr.Opts)
	if done := pre.RunUntil(cut); done {
		t.Fatalf("run completed before the cut at %d", cut)
	}
	var buf bytes.Buffer
	if err := pre.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	w, nr = lucidOf()
	fits := modelFitCount()
	resumed, err := sim.Resume(w.Eval, nr.Sched, nr.Opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := modelFitCount() - fits; n != 1 {
		t.Fatalf("RestoreState fit the models %d times, want 1", n)
	}
	if got := resumed.Run().Summary(); got != want {
		t.Errorf("resumed metrics differ from the uninterrupted run:\n  %s\n  %s", got, want)
	}
}

// BenchmarkBuildWorld times one cold BuildWorld of bench/'s Saturn×0.2
// world per iteration; with-models also forces the fit of Lucid's models a
// first Lucid round pays for, and with-estimator the GBDT fit a first QSSF or
// Horus estimate pays for.
//
//	go test ./internal/lab/ -run '^$' -bench BenchmarkBuildWorld -benchtime 1x
func BenchmarkBuildWorld(b *testing.B) {
	build := func(b *testing.B, force func(w *World)) {
		for i := 0; i < b.N; i++ {
			w, err := BuildWorld(trace.Saturn(), 0.2)
			if err != nil {
				b.Fatal(err)
			}
			force(w)
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/build")
	}
	b.Run("build", func(b *testing.B) { build(b, func(*World) {}) })
	b.Run("with-models", func(b *testing.B) { build(b, func(w *World) { w.Models() }) })
	b.Run("with-estimator", func(b *testing.B) {
		build(b, func(w *World) { w.Estimator.EstimateSec(w.Eval.Jobs[0]) })
	})
}
