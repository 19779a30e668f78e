// Package mlmodel holds the shared dataset representation and evaluation
// metrics used by every model family in this repository (decision tree,
// random forest, gradient boosting, GAM, MLP). Table 7 of the Lucid paper
// compares those families with MAE and R²; the packing analyzer is scored
// with classification accuracy.
package mlmodel

import (
	"fmt"
	"math"
)

// Dataset is a dense supervised-learning table: row-major features plus one
// target per row. Feature names travel with the data so interpretable models
// can render human-readable explanations.
type Dataset struct {
	X     [][]float64
	Y     []float64
	Names []string
}

// NewDataset validates shapes and wraps the slices (no copy).
func NewDataset(x [][]float64, y []float64, names []string) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("mlmodel: %d feature rows vs %d targets", len(x), len(y))
	}
	if len(x) > 0 {
		w := len(x[0])
		for i, row := range x {
			if len(row) != w {
				return nil, fmt.Errorf("mlmodel: row %d has %d features, want %d", i, len(row), w)
			}
		}
		if names != nil && len(names) != w {
			return nil, fmt.Errorf("mlmodel: %d names for %d features", len(names), w)
		}
	}
	return &Dataset{X: x, Y: y, Names: names}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 for an empty set).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// FeatureName returns the name of feature i, or "f<i>" if unnamed.
func (d *Dataset) FeatureName(i int) string {
	if d.Names != nil && i < len(d.Names) {
		return d.Names[i]
	}
	return fmt.Sprintf("f%d", i)
}

// Subset returns the dataset restricted to the given row indices (views, no
// copies of rows).
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for i, p := range idx {
		x[i] = d.X[p]
		y[i] = d.Y[p]
	}
	return &Dataset{X: x, Y: y, Names: d.Names}
}

// CheckFinite returns an error naming the first NaN or ±Inf feature value or
// target. The tree learners sort and sum these values, and a NaN makes both
// silently order-dependent, so they reject such a dataset instead of fitting
// it.
func (d *Dataset) CheckFinite() error {
	for i, row := range d.X {
		for f, v := range row {
			if v-v != 0 {
				return fmt.Errorf("row %d feature %d (%s) is %v", i, f, d.FeatureName(f), v)
			}
		}
	}
	for i, y := range d.Y {
		if y-y != 0 {
			return fmt.Errorf("row %d target is %v", i, y)
		}
	}
	return nil
}

// Regressor is a trained model that predicts a real value per feature row.
type Regressor interface {
	Predict(x []float64) float64
}

// PredictAll applies a regressor row-wise.
func PredictAll(m Regressor, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// MAE is the mean absolute error (Table 7's throughput metric; lower is
// better).
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// R2 is the coefficient of determination (Table 7's duration metric; higher
// is better, 1 is perfect, ≤0 means no better than predicting the mean).
func R2(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		d := truth[i] - pred[i]
		ssRes += d * d
		m := truth[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Accuracy is the fraction of exact label matches.
func Accuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	hit := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (0 for fewer than 2 elements).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}
