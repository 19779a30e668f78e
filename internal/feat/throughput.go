// Package feat is the feature-engineering layer behind Lucid's two GAM
// models (§3.5.2–§3.5.3): time-series features for the Throughput Predict
// Model (trend, seasonality, rolling statistics of hourly submission
// counts) and job features for the Workload Estimate Model (categorical
// encodings, Levenshtein + affinity-propagation name buckets, historical
// mean-duration encodings, and the profiled resource features that
// distinguish Lucid's estimator from QSSF's).
package feat

import (
	"math"
	"sort"

	"repro/internal/job"
	"repro/internal/ml/mlmodel"
)

// HourlySubmissions buckets job submissions into hours over the window
// [0, days·24).
func HourlySubmissions(jobs []*job.Job, days int) []float64 {
	out := make([]float64, days*24)
	for _, j := range jobs {
		h := int(j.Submit / 3600)
		if h >= 0 && h < len(out) {
			out[h]++
		}
	}
	return out
}

// throughputFeatureNames mirrors the Figure 7a feature inventory: calendar
// encodings plus shifted/rolling/soft-sum statistics over the recent series.
var throughputFeatureNames = []string{
	"hour", "day", "dayofweek",
	"shift_1h", "shift_2h", "shift_1d",
	"roll_mean_3h", "roll_median_6h", "roll_mean_1d",
	"soft_1h", "soft_3h", "soft_1d",
}

// ThroughputFeatureNames returns a copy of the feature name list.
func ThroughputFeatureNames() []string {
	return append([]string(nil), throughputFeatureNames...)
}

// throughputHistoryHours is how much history each feature row needs.
const throughputHistoryHours = 24

// ThroughputFeatures computes one feature row predicting series[t] from
// series[:t]. t must be ≥ ThroughputWarmup().
func ThroughputFeatures(series []float64, t int) []float64 {
	window := func(k int) []float64 { return series[t-k : t] }
	return []float64{
		float64(t % 24),
		float64(t / 24),
		float64((t / 24) % 7),
		series[t-1],
		series[t-2],
		series[t-24],
		mlmodel.Mean(window(3)),
		median(window(6)),
		mlmodel.Mean(window(24)),
		softSum(window(6), 1.0),
		softSum(window(12), 3.0),
		softSum(window(24), 24.0),
	}
}

// ThroughputWarmup returns the minimum t for which features exist.
func ThroughputWarmup() int { return throughputHistoryHours }

// ThroughputDataset converts an hourly series into a supervised dataset:
// features at t → series[t].
func ThroughputDataset(series []float64) *mlmodel.Dataset {
	var x [][]float64
	var y []float64
	for t := ThroughputWarmup(); t < len(series); t++ {
		x = append(x, ThroughputFeatures(series, t))
		y = append(y, series[t])
	}
	ds, err := mlmodel.NewDataset(x, y, ThroughputFeatureNames())
	if err != nil {
		panic("feat: internal shape error: " + err.Error())
	}
	return ds
}

// softSum is an exponentially decayed sum over the window (most recent last)
// with time constant tau hours — the paper's "weighted soft summation".
func softSum(window []float64, tau float64) float64 {
	s := 0.0
	n := len(window)
	for i, v := range window {
		age := float64(n - 1 - i)
		s += v * math.Exp(-age/tau)
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
