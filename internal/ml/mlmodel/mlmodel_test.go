package mlmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("row/target mismatch accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {3}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}}, []float64{1}, []string{"only-one"}); err == nil {
		t.Fatal("name count mismatch accepted")
	}
	ds, err := NewDataset([][]float64{{1, 2}}, []float64{3}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != 2 || ds.Len() != 1 {
		t.Fatal("shape accessors wrong")
	}
	if ds.FeatureName(0) != "a" {
		t.Fatal("feature name lookup wrong")
	}
}

func TestFeatureNameFallback(t *testing.T) {
	ds := &Dataset{X: [][]float64{{1, 2}}, Y: []float64{0}}
	if got := ds.FeatureName(1); got != "f1" {
		t.Fatalf("fallback name = %q", got)
	}
}

func TestSubset(t *testing.T) {
	ds := &Dataset{X: [][]float64{{0}, {1}, {2}}, Y: []float64{0, 1, 2}}
	s := ds.Subset([]int{2, 0})
	if s.Len() != 2 || s.Y[0] != 2 || s.Y[1] != 0 {
		t.Fatalf("subset wrong: %+v", s)
	}
}

func TestMetricsKnownValues(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 5}
	if got := MAE(pred, truth); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("MAE = %v", got)
	}
}

func TestR2PerfectAndMeanBaseline(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	if got := R2(truth, truth); got != 1 {
		t.Fatalf("perfect R2 = %v", got)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(meanPred, truth); math.Abs(got) > 1e-12 {
		t.Fatalf("mean-baseline R2 = %v, want 0", got)
	}
	// Worse than the mean → negative.
	bad := []float64{4, 3, 2, 1}
	if got := R2(bad, truth); got >= 0 {
		t.Fatalf("anti-correlated R2 = %v, want <0", got)
	}
}

func TestR2ConstantTruth(t *testing.T) {
	truth := []float64{7, 7, 7}
	if got := R2([]float64{7, 7, 7}, truth); got != 1 {
		t.Fatalf("constant exact R2 = %v", got)
	}
	if got := R2([]float64{7, 8, 7}, truth); got != 0 {
		t.Fatalf("constant miss R2 = %v", got)
	}
}

func TestMetricsEmptyNaN(t *testing.T) {
	if !math.IsNaN(MAE(nil, nil)) || !math.IsNaN(R2(nil, nil)) {
		t.Fatal("empty metrics should be NaN")
	}
	if !math.IsNaN(MAE([]float64{1}, []float64{1, 2})) {
		t.Fatal("length mismatch should be NaN")
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Fatal("empty accuracy should be NaN")
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Fatalf("variance = %v", got)
	}
	if Variance([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Fatal("degenerate stats wrong")
	}
}

func TestMAENonNegativeProperty(t *testing.T) {
	check := func(a, b []float64) bool {
		if len(a) != len(b) {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			a, b = a[:n], b[:n]
		}
		if len(a) == 0 {
			return true
		}
		for i := range a {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
				return true
			}
		}
		return MAE(a, b) >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
