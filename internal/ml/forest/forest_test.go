package forest

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func friedmanData(n int, seed uint64) *mlmodel.Dataset {
	// A classic nonlinear regression benchmark (subset of Friedman #1).
	rng := xrand.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x[i] = []float64{a, b, c}
		y[i] = 10*math.Sin(math.Pi*a*b) + 20*(c-0.5)*(c-0.5) + rng.Norm(0, 0.3)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	return ds
}

func TestRegressorBeatsMeanBaseline(t *testing.T) {
	train := friedmanData(600, 1)
	test := friedmanData(200, 2)
	f, err := FitRegressor(train, Params{NumTrees: 50, MaxDepth: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(f, test.X)
	if r2 := mlmodel.R2(pred, test.Y); r2 < 0.7 {
		t.Fatalf("forest R2 = %v, want ≥0.7", r2)
	}
}

func TestForestValidation(t *testing.T) {
	if _, err := FitRegressor(&mlmodel.Dataset{}, Params{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

// The error names the row of the caller's dataset, not a bootstrap position.
func TestNonFiniteInputsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y float64 // planted in row 7
		want string
	}{
		{"NaN feature", math.NaN(), 1, "row 7 feature 1 (f1) is NaN"},
		{"Inf feature", math.Inf(-1), 1, "row 7 feature 1 (f1) is -Inf"},
		{"NaN target", 0.5, math.NaN(), "row 7 target is NaN"},
		{"Inf target", 0.5, math.Inf(1), "row 7 target is +Inf"},
	} {
		ds := friedmanData(20, 9)
		ds.X[7][1], ds.Y[7] = tc.x, tc.y
		if _, err := FitRegressor(ds, Params{NumTrees: 3}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FitRegressor error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	ds := friedmanData(200, 6)
	a, _ := FitRegressor(ds, Params{NumTrees: 10, Seed: 7})
	b, _ := FitRegressor(ds, Params{NumTrees: 10, Seed: 7})
	for i := 0; i < 20; i++ {
		row := ds.X[i]
		if a.Predict(row) != b.Predict(row) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestNumTreesDefault(t *testing.T) {
	ds := friedmanData(50, 8)
	f, _ := FitRegressor(ds, Params{NumTrees: 5})
	if len(f.trees) != 5 {
		t.Fatalf("%d trees", len(f.trees))
	}
}
