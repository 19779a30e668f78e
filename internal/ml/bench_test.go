// Package ml_test holds the tree-family micro-benchmarks. CI runs them at
// -benchtime 1x and archives the output (bench-ml.txt).
package ml_test

import (
	"math"
	"testing"

	"repro/internal/ml/dtree"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/mlmodel"
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
