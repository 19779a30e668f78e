package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/feat"
	"repro/internal/lab"
	"repro/internal/ml/dtree"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/mlmodel"
	"repro/internal/ml/textdist"
	"repro/internal/trace"
)

// worldBuildLayers splits setup_s into its layers by calling, on the built
// world's history month, the same public pieces lab.BuildWorld calls. Traced
// runs only: it costs about one more world build, which a traced sim run pays
// for with two repetitions fewer.
func worldBuildLayers(w *lab.World, r *result, tr *tracer) error {
	tr.rep = -1 // not part of any repetition
	root := tr.begin("layers.world_build")
	defer tr.end(root)
	hist := w.History

	var err error
	timed := func(name string, fn func()) {
		if err != nil {
			return
		}
		id := tr.begin(name)
		start := time.Now()
		fn()
		r.set(name, time.Since(start).Seconds())
		tr.end(id)
	}
	timed("trace.emit_s", func() {
		g := trace.NewGenerator(w.Spec)
		g.Emit(len(hist.Jobs)) // history month
		g.Emit(len(hist.Jobs)) // evaluation month
	})
	timed("core.train_analyzer_s", func() {
		_, err = core.TrainPackingAnalyzer(core.DefaultConfig().Thresholds)
	})
	timed("core.train_estimator_s", func() {
		_, err = core.TrainWorkloadEstimator(hist.Jobs)
	})
	timed("core.train_throughput_s", func() {
		_, err = core.TrainThroughputModel(hist.Jobs, hist.Days)
	})
	var ds *mlmodel.Dataset
	timed("feat.duration_dataset_s", func() {
		ds = feat.NewDurationFeaturizer(hist.Jobs, false).Dataset(hist.Jobs)
	})
	timed("ml.gbdt_fit_s", func() {
		_, err = gbdt.Fit(ds, gbdt.LightGBMStyle())
	})
	// lab.NewGBDTEstimator is exactly the two calls above — the one part of
	// the build a Lucid-only run does not need. The fit is 7 s of the 7.5 s
	// build, so it is timed once and summed rather than run a second time.
	r.set("lab.gbdt_estimator_s", r.vals["feat.duration_dataset_s"]+r.vals["ml.gbdt_fit_s"])
	timed("ml.dtree_fit_s", func() {
		_, err = dtree.FitRegressor(ds, dtree.Params{MaxDepth: 6, MinSamplesLeaf: 20})
	})
	if err != nil {
		return err
	}

	// Name similarity: every pair among the first distinct job names.
	const maxNames = 200
	seen := map[string]bool{}
	var names []string
	for _, j := range hist.Jobs {
		if !seen[j.Name] {
			seen[j.Name] = true
			names = append(names, j.Name)
			if len(names) == maxNames {
				break
			}
		}
	}
	id := tr.begin("ml.textdist_levenshtein_ns")
	start := time.Now()
	calls, sum := 0, 0
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			sum += textdist.Levenshtein(names[i], names[j])
			calls++
		}
	}
	el := time.Since(start)
	tr.end(id)
	levenshteinSink = sum
	if calls > 0 {
		r.set("ml.textdist_levenshtein_ns", float64(el.Nanoseconds())/float64(calls))
	}
	return nil
}

// levenshteinSink keeps the distance loop's result live.
var levenshteinSink int
