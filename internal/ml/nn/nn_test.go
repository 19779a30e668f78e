package nn

import (
	"math"
	"testing"

	"repro/internal/ml/mlmodel"
	"repro/internal/xrand"
)

func linearData(n int, seed uint64) *mlmodel.Dataset {
	rng := xrand.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x[i] = []float64{a, b}
		y[i] = 3*a - 2*b + 5 + rng.Norm(0, 0.05)
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	return ds
}

func TestFitsLinearFunction(t *testing.T) {
	train := linearData(500, 1)
	test := linearData(100, 2)
	m, err := Fit(train, Params{Epochs: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, test.X)
	if r2 := mlmodel.R2(pred, test.Y); r2 < 0.95 {
		t.Fatalf("MLP R2 on linear data = %v", r2)
	}
}

func TestFitsNonlinear(t *testing.T) {
	rng := xrand.New(4)
	n := 800
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		x[i] = []float64{a}
		y[i] = a * a
	}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, err := Fit(ds, Params{Epochs: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred := mlmodel.PredictAll(m, ds.X)
	if r2 := mlmodel.R2(pred, ds.Y); r2 < 0.9 {
		t.Fatalf("MLP R2 on x² = %v", r2)
	}
}

func TestEmptyRejected(t *testing.T) {
	if _, err := Fit(&mlmodel.Dataset{}, Params{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	ds := linearData(100, 6)
	a, _ := Fit(ds, Params{Epochs: 5, Seed: 7})
	b, _ := Fit(ds, Params{Epochs: 5, Seed: 7})
	for i := 0; i < 10; i++ {
		if a.Predict(ds.X[i]) != b.Predict(ds.X[i]) {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestConstantFeatureNoNaN(t *testing.T) {
	// Zero-variance features must not divide by zero during standardization.
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{1, 2, 3, 4}
	ds, _ := mlmodel.NewDataset(x, y, nil)
	m, err := Fit(ds, Params{Epochs: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2.5, 5}); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction = %v", p)
	}
}
