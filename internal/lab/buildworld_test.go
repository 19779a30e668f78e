package lab

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sequentialWorld is the oracle for BuildWorld's overlapped build: the same
// steps one after another — emit the history month, emit the evaluation
// month, train Lucid's models, fit the GBDT estimator — over the scaled spec
// and month size BuildWorld chose.
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
	return &World{Spec: spec, History: hist, Eval: eval, Models: models, Estimator: est}
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

// TestBuildWorldMatchesSequential holds the overlapped build to the
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
			if !bytes.Equal(saveModels(t, w.Models), saveModels(t, want.Models)) {
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

// BenchmarkBuildWorld times one cold BuildWorld of bench/'s Saturn×0.2
// world per iteration; with-estimator also forces the GBDT fit a first QSSF
// or Horus estimate pays for.
//
//	go test ./internal/lab/ -run '^$' -bench BenchmarkBuildWorld -benchtime 1x
func BenchmarkBuildWorld(b *testing.B) {
	build := func(b *testing.B, estimate bool) {
		for i := 0; i < b.N; i++ {
			w, err := BuildWorld(trace.Saturn(), 0.2)
			if err != nil {
				b.Fatal(err)
			}
			if estimate {
				w.Estimator.EstimateSec(w.Eval.Jobs[0])
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/build")
	}
	b.Run("build", func(b *testing.B) { build(b, false) })
	b.Run("with-estimator", func(b *testing.B) { build(b, true) })
}
