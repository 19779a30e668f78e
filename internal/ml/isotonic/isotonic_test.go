package isotonic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAlreadyMonotoneUnchanged(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	got := Regression(y, nil)
	for i := range y {
		if got[i] != y[i] {
			t.Fatalf("monotone input modified: %v", got)
		}
	}
}

func TestSingleViolatorPooled(t *testing.T) {
	y := []float64{1, 3, 2, 4}
	got := Regression(y, nil)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFullyReversedPoolsToMean(t *testing.T) {
	y := []float64{4, 3, 2, 1}
	got := Regression(y, nil)
	for _, v := range got {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("reversed input should pool to the mean: %v", got)
		}
	}
}

func TestWeightsShiftPooledMean(t *testing.T) {
	y := []float64{2, 0}
	w := []float64{3, 1}
	got := Regression(y, w)
	// Pooled weighted mean = (2·3 + 0·1)/4 = 1.5.
	for _, v := range got {
		if math.Abs(v-1.5) > 1e-12 {
			t.Fatalf("weighted pool wrong: %v", got)
		}
	}
}

func TestOutputAlwaysMonotone(t *testing.T) {
	check := func(ys []float64) bool {
		for _, v := range ys {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return IsMonotoneNonDecreasing(Regression(ys, nil))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanPreserved(t *testing.T) {
	// Unweighted PAV preserves the total sum.
	y := []float64{5, 1, 4, 2, 8, 3}
	got := Regression(y, nil)
	var sy, sg float64
	for i := range y {
		sy += y[i]
		sg += got[i]
	}
	if math.Abs(sy-sg) > 1e-9 {
		t.Fatalf("sum changed: %v → %v", sy, sg)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := Regression(nil, nil); len(got) != 0 {
		t.Fatal("empty input should give empty output")
	}
	if got := Regression([]float64{7}, nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("single element mangled: %v", got)
	}
}

func TestIsMonotoneHelper(t *testing.T) {
	if !IsMonotoneNonDecreasing([]float64{1, 1, 2}) {
		t.Fatal("flat steps are monotone")
	}
	if IsMonotoneNonDecreasing([]float64{2, 1}) {
		t.Fatal("decreasing flagged monotone")
	}
}
