// Package ml_test holds the micro-benchmarks of the model fits and the name
// distance. CI runs them at -benchtime 1x and archives the output
// (bench-ml.txt).
package ml_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/feat"
	"repro/internal/job"
	"repro/internal/lab"
	"repro/internal/ml/dtree"
	"repro/internal/ml/gam"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/mlmodel"
	"repro/internal/ml/textdist"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// durationLike builds a 20,000 × 8 table shaped like feat's duration
// features: every column is categorical or a per-category mean, so values
// repeat thousands of times and some columns are functions of others
// (gpu_mean of gpu_num, the template columns of the template). Ties are what
// a tree fit on this repository's data spends its time on.
func durationLike() (reg, cls *mlmodel.Dataset) {
	const n, templates, users = 20000, 600, 200
	rng := xrand.New(15)
	tmplMean, tmplCount, tmplBucket := make([]float64, templates), make([]float64, templates), make([]float64, templates)
	for t := range tmplMean {
		tmplMean[t] = rng.LogNormal(7, 1.5)
		tmplCount[t] = float64(1 + rng.Intn(400))
		tmplBucket[t] = float64(rng.Intn(50))
	}
	userMean := make([]float64, users)
	for u := range userMean {
		userMean[u] = rng.LogNormal(7.5, 1)
	}
	x := make([][]float64, n)
	dur, class := make([]float64, n), make([]float64, n)
	for i := range x {
		gpus := float64(int(1) << rng.Intn(5))
		// Cubing a uniform draw skews use towards the first templates and users.
		a, b := rng.Float64(), rng.Float64()
		t, u := int(templates*a*a*a), int(users*b*b*b)
		x[i] = []float64{
			gpus, float64(rng.Intn(24)), float64(rng.Intn(7)),
			tmplBucket[t], tmplMean[t], tmplCount[t], userMean[u], 3000 * math.Sqrt(gpus),
		}
		dur[i] = tmplMean[t]*rng.LogNormal(0, 0.8) + 0.1*userMean[u]
		class[i] = math.Min(2, math.Floor(math.Log10(dur[i]/60+1)))
	}
	names := []string{"gpu_num", "hour", "dayofweek", "name_bucket", "tmpl_mean", "tmpl_count", "user_mean", "gpu_mean"}
	return &mlmodel.Dataset{X: x, Y: dur, Names: names}, &mlmodel.Dataset{X: x, Y: class, Names: names}
}

var sink any

func BenchmarkTreeFitRegressor(b *testing.B) {
	ds, _ := durationLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := dtree.FitRegressor(ds, dtree.Params{MaxDepth: 6, MinSamplesLeaf: 20})
		if err != nil {
			b.Fatal(err)
		}
		sink = tr
	}
}

func BenchmarkTreeFitClassifier(b *testing.B) {
	_, ds := durationLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := dtree.FitClassifier(ds, 3, dtree.Params{MaxDepth: 6, MinSamplesLeaf: 20})
		if err != nil {
			b.Fatal(err)
		}
		sink = tr
	}
}

func BenchmarkGBDTFit(b *testing.B) {
	ds, _ := durationLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gbdt.Fit(ds, gbdt.LightGBMStyle())
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

// BenchmarkGAMFit is one Workload Estimate refit: the duration table widened
// to the estimator's 12 columns by four continuous profile-like ones, fit
// with the estimator's parameters.
func BenchmarkGAMFit(b *testing.B) {
	base, _ := durationLike()
	rng := xrand.New(16)
	x := make([][]float64, len(base.X))
	for i, row := range base.X {
		x[i] = append(row[:len(row):len(row)],
			100*rng.Float64(), rng.LogNormal(8, 1), 100*rng.Float64(), float64(rng.Intn(2)))
	}
	names := append(base.Names[:len(base.Names):len(base.Names)], "gpu_util", "gpu_mem_mb", "gpu_mem_util", "amp")
	ds := &mlmodel.Dataset{X: x, Y: base.Y, Names: names}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gam.Fit(ds, gam.Params{MaxBins: 64, Rounds: 300, LearningRate: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

// BenchmarkEstimatorRefit is the Update Engine's third weekly refit on a
// Saturn×0.2 world: the history month plus the evaluation month's first
// three weeks (≈ 35,000 jobs). full is the estimator's from-zero gam.Fit,
// warm its gam.FitFrom of the history-month model (30 rounds, history
// encodings re-binned), featurize the featurizer fit and Dataset build
// that precede either, and featurize-refit the same from the featurizer of
// the week before (the Update Engine's feat.Refit along its lineage).
func BenchmarkEstimatorRefit(b *testing.B) {
	w, err := lab.BuildWorld(trace.Saturn(), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	hist := w.History.Jobs
	rows := append([]*job.Job(nil), hist...)
	weekTwo := 0 // evaluation jobs submitted in the first two weeks
	for _, j := range w.Eval.Jobs {
		if j.Submit < 21*86400 {
			rows = append(rows, j)
		}
		if j.Submit < 14*86400 {
			weekTwo++
		}
	}
	core.EnsureProfiles(rows)
	p := gam.Params{MaxBins: 64, Rounds: 300, LearningRate: 0.05}
	prev, err := gam.Fit(feat.NewDurationFeaturizer(hist, true).Dataset(hist), p)
	if err != nil {
		b.Fatal(err)
	}
	ds := feat.NewDurationFeaturizer(rows, true).Dataset(rows)
	prevFeat, _ := feat.Refit(nil, rows[:len(hist)+weekTwo], true)
	warm := p
	warm.Rounds = 30
	for _, c := range []struct {
		name string
		fit  func() (any, error)
	}{
		{"full", func() (any, error) { return gam.Fit(ds, p) }},
		{"warm", func() (any, error) { return gam.FitFrom(prev, ds, warm, feat.HistoryEncoded()) }},
		{"featurize", func() (any, error) { return feat.NewDurationFeaturizer(rows, true).Dataset(rows), nil }},
		{"featurize-refit", func() (any, error) { _, ds := feat.Refit(prevFeat, rows, true); return ds, nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := c.fit()
				if err != nil {
					b.Fatal(err)
				}
				sink = m
			}
		})
	}
}

// BenchmarkLevenshtein is every pair among 200 names of the trace
// generator's shape — what the duration featurizer's name bucketing computes.
func BenchmarkLevenshtein(b *testing.B) {
	rng := xrand.New(17)
	models := []string{"ResNet50", "BERT-base", "DeepSpeech2", "PointNet", "VGG16"}
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("vc%02d-user%02d-%s-t%d-v%d", rng.Intn(20), rng.Intn(60), models[rng.Intn(len(models))], rng.Intn(600), 1+rng.Intn(40))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		for p := range names {
			for q := p + 1; q < len(names); q++ {
				sum += textdist.Levenshtein(names[p], names[q])
			}
		}
		sink = sum
	}
}
