package core

import (
	"fmt"

	"repro/internal/feat"
	"repro/internal/job"
	"repro/internal/ml/gam"
	"repro/internal/ml/mlmodel"
)

// ThroughputModel is the Throughput Predict Model (§3.5.2): a GAM
// time-series forecaster over hourly job-submission counts. The Binder's
// Dynamic Strategy asks it whether load is about to rise (keep packing) or
// stay low (relax to Apathetic mode or disable sharing), and the Profiler's
// Time-aware Scaling uses the same forecast to grow or shrink the profiling
// partition.
type ThroughputModel struct {
	model *gam.Model

	// Online observation window: the most recent hourly counts, appended by
	// the scheduler as simulated time passes, so forecasts use live data.
	recent []float64
	// baseline is the training-series mean, defining "relatively low"
	// throughput (§3.3: a customizable notion).
	baseline float64
}

// TrainThroughputModel fits the forecaster on a history trace's hourly
// submission series.
func TrainThroughputModel(history []*job.Job, days int) (*ThroughputModel, error) {
	series := feat.HourlySubmissions(history, days)
	if len(series) <= feat.ThroughputWarmup() {
		return nil, fmt.Errorf("core: throughput history too short (%d hours)", len(series))
	}
	ds := feat.ThroughputDataset(series)
	m, err := gam.Fit(ds, gam.Params{MaxBins: 10, Rounds: 300, LearningRate: 0.04})
	if err != nil {
		return nil, fmt.Errorf("core: throughput fit: %w", err)
	}
	t := &ThroughputModel{model: m, baseline: mlmodel.Mean(series)}
	// Seed the live window with the tail of history so forecasting works
	// from the first simulated hour.
	warm := feat.ThroughputWarmup() + 2
	t.recent = append(t.recent, series[len(series)-warm:]...)
	return t, nil
}

// Observe appends one completed hour's submission count.
func (t *ThroughputModel) Observe(count float64) {
	t.recent = append(t.recent, count)
	// Bound the window: features need at most a day plus slack.
	if max := feat.ThroughputWarmup() * 4; len(t.recent) > max {
		t.recent = t.recent[len(t.recent)-max:]
	}
}

// Clone returns a forecaster sharing the fitted model but with its own
// live observation window, so independent scheduler runs don't feed each
// other's Observe calls.
func (t *ThroughputModel) Clone() *ThroughputModel {
	cp := *t
	cp.recent = append([]float64(nil), t.recent...)
	return &cp
}

// ForecastNextHour predicts the coming hour's submissions. hourOfDay and
// dayIndex anchor the calendar features to simulated time.
func (t *ThroughputModel) ForecastNextHour(hourOfDay, dayIndex int) float64 {
	n := len(t.recent)
	if n < feat.ThroughputWarmup() {
		return t.baseline
	}
	// Build the feature row against the live window, overriding the
	// calendar features with real simulated time.
	row := feat.ThroughputFeatures(t.recent, n)
	row[0] = float64(hourOfDay)
	row[1] = float64(dayIndex)
	row[2] = float64(dayIndex % 7)
	v := t.model.Predict(row)
	if v < 0 {
		v = 0
	}
	return v
}

// PredictRow scores one pre-built feature row (batch evaluation in the
// Figure 13 and Table 7 experiments).
func (t *ThroughputModel) PredictRow(row []float64) float64 { return t.model.Predict(row) }

// LoadLevel classifies the forecast relative to the baseline: below
// lowFrac·baseline is "low" (sharing can relax), above highFrac·baseline is
// "high".
type LoadLevel int

// Load levels for the Dynamic Strategy.
const (
	LoadLow LoadLevel = iota
	LoadNormal
	LoadHigh
)

// Level buckets a forecast.
func (t *ThroughputModel) Level(forecast float64) LoadLevel {
	switch {
	case forecast < 0.5*t.baseline:
		return LoadLow
	case forecast > 1.3*t.baseline:
		return LoadHigh
	default:
		return LoadNormal
	}
}

// GlobalImportance exposes Figure 7a's bars.
func (t *ThroughputModel) GlobalImportance() []float64 { return t.model.GlobalImportance() }

// HourShape returns the learned shape function of the hour feature —
// Figure 7b.
func (t *ThroughputModel) HourShape() []gam.ShapePoint { return t.model.ShapeFunction(0) }

// FeatureNames lists the forecaster's inputs.
func (t *ThroughputModel) FeatureNames() []string { return feat.ThroughputFeatureNames() }
